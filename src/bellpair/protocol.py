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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .states import SINGLET_PAULI, DensityMatrix, decompose

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


@dataclass(frozen=True)
class AngleSettings:
    """Analyzer angles (degrees) in the order of the four-angle combination."""

    phi1: float
    phi1p: float
    phi2: float
    phi2p: float

    def __post_init__(self) -> None:
        for name in ("phi1", "phi1p", "phi2", "phi2p"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def pairs(self) -> tuple[tuple[float, float], ...]:
        """The four (phi_first, phi_second) angle pairs, combination order."""
        return (
            (self.phi1, self.phi2),
            (self.phi1, self.phi2p),
            (self.phi1p, self.phi2),
            (self.phi1p, self.phi2p),
        )


@dataclass(frozen=True)
class CountTable:
    """Coincidence counts for one analyzer angle pair."""

    phi1: float
    phi2: float
    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int

    def __post_init__(self) -> None:
        for name in ("n_pp", "n_pm", "n_mp", "n_mm"):
            value = getattr(self, name)
            # ``not value >= 0`` also rejects nan; inf would overflow int()
            if not value >= 0 or value == math.inf or value != int(value):
                raise ValueError(f"{name} must be a nonnegative integer, got {value}")

    @property
    def total(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm


@dataclass(frozen=True)
class ChshDatum:
    """One measured CHSH combination with its 1-sigma uncertainty."""

    settings: AngleSettings
    r_exp: float
    dr_exp: float

    def __post_init__(self) -> None:
        for name in ("r_exp", "dr_exp"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.dr_exp > 0.0):
            raise NonpositiveError(f"dr_exp must be positive, got {self.dr_exp}")


@dataclass(frozen=True)
class FitResult:
    """Weighted least-squares fit of the mixing weight gamma.

    ``chi2_case1`` and ``chi2_case2`` evaluate the chi-square at gamma=1
    (pure singlet) and gamma=0.9 (the reference mixing level).
    ``singlet_values`` holds the pure-singlet prediction per datum and
    ``residuals`` the normalized residuals at the fitted gamma.
    """

    gamma_hat: float
    chi2_at_min: float
    chi2_case1: float
    chi2_case2: float
    residuals: tuple[float, ...]
    singlet_values: tuple[float, ...]


def angle_to_direction(phi: float) -> np.ndarray:
    """Unit vector (sin phi, 0, cos phi) for an analyzer angle in degrees."""
    rad = math.radians(phi)
    return np.array([math.sin(rad), 0.0, math.cos(rad)])


def correlation(rho: DensityMatrix, phi1: float, phi2: float) -> float:
    """Joint spin correlation E(phi1, phi2) = a.(D b) for coplanar angles."""
    d = decompose(rho).D
    return float(angle_to_direction(phi1) @ d @ angle_to_direction(phi2))


def chsh_value(rho: DensityMatrix, s: AngleSettings) -> float:
    """Absolute value of the four-angle CHSH combination for a state."""
    return chsh_from_correlation(decompose(rho).D, s)


def chsh_from_correlation(d: np.ndarray, s: AngleSettings) -> float:
    """:func:`chsh_value` for a state with correlation matrix ``d``."""
    e = [float(angle_to_direction(p1) @ d @ angle_to_direction(p2)) for p1, p2 in s.pairs()]
    return abs(e[0] + e[1] + e[2] - e[3])


def estimate_correlation(c: CountTable) -> tuple[float, float]:
    """Correlation estimate and its multinomial 1-sigma error from counts.

    E = (N++ + N-- - N+- - N-+) / N_total and
    sigma = sqrt((1 - E^2) / N_total); NotFinite if N_total overflows a float.
    """
    total = c.total
    if total <= 0:
        raise EmptyCounts("cannot estimate a correlation from zero events")
    e = (c.n_pp + c.n_mm - c.n_pm - c.n_mp) / total
    try:
        sigma = math.sqrt(max(1.0 - e * e, 0.0) / total)
    except OverflowError:
        raise NotFinite(f"{total} events leave the floating-point range") from None
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
    combo = estimates[0][0] + estimates[1][0] + estimates[2][0] - estimates[3][0]
    err = math.sqrt(sum(sig * sig for _, sig in estimates))
    return ChshDatum(settings=settings, r_exp=abs(combo), dr_exp=err)


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
    s_vals = [chsh_from_correlation(SINGLET_PAULI.D, d.settings) for d in data]
    try:
        num = sum(s * d.r_exp / d.dr_exp**2 for s, d in zip(s_vals, data))
        den = sum(s * s / d.dr_exp**2 for s, d in zip(s_vals, data))
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
