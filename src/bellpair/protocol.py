"""Coplanar-angle CHSH workflow: correlations, counts, chi-square fitting.

Analyzers sweep the x-z plane; an angle phi (degrees, measured from +z)
maps to the unit direction (sin phi, 0, cos phi).  For the singlet this
reproduces E(phi1, phi2) = -cos(phi1 - phi2), and for the Werner family
the same correlation scaled by the mixing weight gamma.

A CHSH setting is the four-angle combination

    R(phi1, phi1', phi2, phi2') =
        |E(phi1,phi2) + E(phi1,phi2') + E(phi1',phi2) - E(phi1',phi2')|

estimated from coincidence counts per angle pair and compared against the
one-parameter model R_th(gamma) = gamma * R_singlet, a weighted linear
least-squares problem with a closed-form minimizer.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .linalg import ordered_sum
from .states import SINGLET_PAULI

REFERENCE_GAMMA = 0.9  # mixing level of the reference comparison (case 2)


class EmptyCounts(ValueError):
    """Count table with zero total events."""


class LengthMismatch(ValueError):
    """Data and prediction lists differ in length."""


class NonpositiveError(ValueError):
    """A 1-sigma uncertainty that is zero or negative."""


class EmptyData(ValueError):
    """Fit requested on an empty dataset."""


class NotFinite(ValueError):
    """A fit quantity that leaves the floating-point range."""


# empty or degenerate data, as opposed to malformed input: exit 4 in the CLI
DEGENERATE_DATA = (EmptyData, EmptyCounts, NonpositiveError, NotFinite)


class AngleSettings(namedtuple("AngleSettings", "phi1 phi1p phi2 phi2p")):
    """Analyzer angles (degrees) in the order of the four-angle combination."""

    __slots__ = ()

    def __new__(cls, phi1: float, phi1p: float, phi2: float, phi2p: float) -> AngleSettings:
        self = super().__new__(cls, phi1, phi1p, phi2, phi2p)
        for name, value in zip(cls._fields, self):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        return self

    def pairs(self) -> tuple[tuple[float, float], ...]:
        """The four (phi_first, phi_second) angle pairs, combination order."""
        return (
            (self.phi1, self.phi2),
            (self.phi1, self.phi2p),
            (self.phi1p, self.phi2),
            (self.phi1p, self.phi2p),
        )


class CountTable(namedtuple("CountTable", "phi1 phi2 n_pp n_pm n_mp n_mm")):
    """Coincidence counts for one analyzer angle pair, stored as ``int``."""

    __slots__ = ()

    def __new__(cls, phi1: float, phi2: float, n_pp: int, n_pm: int, n_mp: int, n_mm: int) -> CountTable:
        counts = []
        for name, value in zip(cls._fields[2:], (n_pp, n_pm, n_mp, n_mm)):
            # ``not value >= 0`` also rejects nan; inf would overflow int()
            if not value >= 0 or value == math.inf or value != int(value):
                raise ValueError(f"counts must be nonnegative integers, got {name}={value}")
            counts.append(int(value))  # exact at any size
        return super().__new__(cls, phi1, phi2, *counts)

    @property
    def total(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm


class ChshDatum(namedtuple("ChshDatum", "settings r_exp dr_exp")):
    """One measured CHSH combination (its :class:`AngleSettings`) with its 1-sigma uncertainty."""

    __slots__ = ()

    def __new__(cls, settings: AngleSettings, r_exp: float, dr_exp: float) -> ChshDatum:
        for name, value in zip(cls._fields[1:], (r_exp, dr_exp)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not (dr_exp > 0.0):
            raise NonpositiveError(f"dr_exp must be positive, got {dr_exp}")
        return super().__new__(cls, settings, r_exp, dr_exp)


class FitResult(namedtuple("FitResult", "gamma_hat chi2_at_min chi2_case1 chi2_case2 residuals singlet_values")):
    """Weighted least-squares fit of the mixing weight gamma.

    ``chi2_case1`` and ``chi2_case2`` evaluate the chi-square at gamma=1
    (pure singlet) and gamma=0.9 (the reference mixing level).
    ``singlet_values`` holds the pure-singlet prediction per datum and
    ``residuals`` the normalized residuals at the fitted gamma, both as
    tuples of ``float``.
    """

    __slots__ = ()


def angle_to_direction(phi: float) -> tuple[float, float, float]:
    """Unit vector (sin phi, 0, cos phi) for an analyzer angle in degrees."""
    rad = math.radians(phi)
    return (math.sin(rad), 0.0, math.cos(rad))


def correlation(d, phi1: float, phi2: float) -> float:
    """E(phi1, phi2) = a.(D b) for coplanar directions a, b: only D_xx, D_xz, D_zx and D_zz enter."""
    s1, _, c1 = angle_to_direction(phi1)
    s2, _, c2 = angle_to_direction(phi2)
    (d_xx, _, d_xz), _, (d_zx, _, d_zz) = d
    return s1 * (d_xx * s2 + d_xz * c2) + c1 * (d_zx * s2 + d_zz * c2)


def _combination(e: Sequence[float]) -> float:
    """|e0 + e1 + e2 - e3| for the correlations of the four pairs, combination order."""
    return abs(e[0] + e[1] + e[2] - e[3])


def chsh_value(d, s: AngleSettings) -> float:
    """Absolute value of the four-angle CHSH combination for correlation matrix ``d``."""
    return _combination([correlation(d, p1, p2) for p1, p2 in s.pairs()])


def estimate_correlation(c: CountTable) -> tuple[float, float]:
    """Correlation estimate and its multinomial 1-sigma error from counts.

    E = (N++ + N-- - N+- - N-+) / N_total and
    sigma = sqrt((1 - E^2) / N_total); NotFinite if N_total overflows a float.
    1 - E^2 is taken from the counts as 4 (N++ + N--)(N+- + N-+) / N_total^2,
    one correctly rounded int division: never negative, and free of the
    rounding of E that ``1 - e*e`` would carry (to 0 once E rounds to +-1).
    From N_total = 2^512 on, sigma^2 (as small as about 4 / N_total^2) would
    leave the normal float range, so N_total is divided by 4^k before the
    square root and sigma by 2^k after it, with k = bit_length - 512: exact
    power-of-two scalings that keep sigma positive up to the float range.
    """
    total = c.total
    if total <= 0:
        raise EmptyCounts("cannot estimate a correlation from zero events")
    same, diff = c.n_pp + c.n_mm, c.n_pm + c.n_mp
    e = (same - diff) / total
    one_minus_e2 = 4 * same * diff / (total * total)
    k = max(total.bit_length() - 512, 0)
    try:
        sigma = math.ldexp(math.sqrt(one_minus_e2 / math.ldexp(total, -2 * k)), -k)
    except OverflowError:
        raise NotFinite(f"event totals of {total.bit_length()} bits leave the floating-point range") from None
    return e, sigma


def chsh_datum_from_counts(tables: Sequence[CountTable]) -> ChshDatum:
    """Build one CHSH datum from the four count tables of a setting.

    The tables must arrive in combination order: (phi1,phi2), (phi1,phi2'),
    (phi1',phi2), (phi1',phi2').  Pair errors add in quadrature.
    """
    if len(tables) != 4:
        raise LengthMismatch(f"a CHSH setting needs 4 count tables, got {len(tables)}")
    t11, t12, t21, t22 = tables
    if t11.phi1 != t12.phi1 or t21.phi1 != t22.phi1:
        raise ValueError("first-analyzer angles do not form a CHSH quadruple")
    if t11.phi2 != t21.phi2 or t12.phi2 != t22.phi2:
        raise ValueError("second-analyzer angles do not form a CHSH quadruple")
    settings = AngleSettings(phi1=t11.phi1, phi1p=t21.phi1, phi2=t11.phi2, phi2p=t12.phi2)
    estimates = [estimate_correlation(t) for t in tables]
    # errors below 2^-500 add in quadrature scaled up by 2^k, so that their squares stay normal floats
    k = max(-500 - math.frexp(max(sig for _, sig in estimates))[1], 0)
    sigmas = [math.ldexp(sig, k) for _, sig in estimates]
    err = math.ldexp(math.sqrt(ordered_sum(sig * sig for sig in sigmas)), -k)
    return ChshDatum(settings=settings, r_exp=_combination([e for e, _ in estimates]), dr_exp=err)


def chi_square(data: Sequence[ChshDatum], predictions: Sequence[float]) -> float:
    """Sum of squared normalized residuals, accumulated in index order (dr_exp > 0 by ChshDatum)."""
    if len(data) != len(predictions):
        raise LengthMismatch(f"{len(data)} data rows vs {len(predictions)} predictions")
    if len(data) == 0:
        raise LengthMismatch("need at least one datum")
    total = 0.0
    for datum, pred in zip(data, predictions):
        res = (pred - datum.r_exp) / datum.dr_exp
        total += res * res
    if not math.isfinite(total):
        raise NotFinite("chi-square overflows: residuals too large for their errors")
    return total


def fit_gamma(data: Sequence[ChshDatum]) -> FitResult:
    """Fit the mixing weight gamma to measured CHSH combinations.

    The model is R_th(gamma) = gamma * S_i with S_i the pure-singlet
    combination at datum i's settings, so the weighted chi-square is
    quadratic in gamma and the minimizer has the closed form

        gamma* = sum(S_i R_i / dr_i^2) / sum(S_i^2 / dr_i^2)

    clamped to [0, 1].  Errors whose square leaves the floating-point
    range, and chi-squares that overflow, raise :class:`NotFinite`.
    """
    data = list(data)
    if not data:
        raise EmptyData("cannot fit an empty dataset")
    s_vals = [chsh_value(SINGLET_PAULI.D, d.settings) for d in data]
    try:
        num = ordered_sum(s * d.r_exp / d.dr_exp**2 for s, d in zip(s_vals, data))
        den = ordered_sum(s * s / d.dr_exp**2 for s, d in zip(s_vals, data))
    except (ZeroDivisionError, OverflowError):
        raise NotFinite("dr_exp**2 underflows or overflows; rescale the data") from None
    gamma_hat = 0.0 if den == 0.0 else min(max(num / den, 0.0), 1.0)
    residuals = tuple((d.r_exp - gamma_hat * s) / d.dr_exp for s, d in zip(s_vals, data))
    return FitResult(
        gamma_hat=gamma_hat,
        chi2_at_min=chi_square(data, [gamma_hat * s for s in s_vals]),
        chi2_case1=chi_square(data, s_vals),
        chi2_case2=chi_square(data, [REFERENCE_GAMMA * s for s in s_vals]),
        residuals=residuals,
        singlet_values=tuple(s_vals),
    )


def group_counts(tables: Iterable[CountTable]) -> list[ChshDatum]:
    """Fold a stream of count tables (4 per setting) into CHSH data."""
    tables = list(tables)
    if len(tables) % 4 != 0:
        raise LengthMismatch(
            f"counts do not group into settings: {len(tables)} rows is not a multiple of 4"
        )
    return [chsh_datum_from_counts(tables[k : k + 4]) for k in range(0, len(tables), 4)]
