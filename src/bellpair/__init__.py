"""Entanglement and CHSH-Bell analysis of two-qubit states.

Quantifies how strongly a two-qubit state (the Werner singlet/unpolarized
mixture being the central case) can violate the CHSH inequality, estimates
spin correlations from coincidence counts, and fits the mixing weight to
measured data.
"""
from .bell import (
    AnalyzerDirections,
    BellReport,
    NonUnitDirection,
    horodecki_max,
    tangle,
)
from .linalg import (
    NoConvergence,
    NotHermitian,
    NotPositive,
    Spectrum,
    eig_hermitian,
    eig_symmetric3,
    sqrt_psd,
)
from .protocol import (
    AngleSettings,
    ChshDatum,
    CountTable,
    EmptyCounts,
    EmptyData,
    FitResult,
    LengthMismatch,
    NonpositiveError,
    NotFinite,
    angle_to_direction,
    chi_square,
    chsh_datum_from_counts,
    chsh_value,
    estimate_correlation,
    fit_gamma,
    group_counts,
)
from .simulate import SimConfig, joint_probabilities, simulate
from .states import (
    DensityMatrix,
    GammaOutOfRange,
    PauliDecomposition,
    TraceNotOne,
    compose,
    decompose,
    phi_minus,
    phi_plus,
    purity,
    singlet,
    triplet0,
    unpolarized,
    validate,
    werner,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyzerDirections",
    "AngleSettings",
    "BellReport",
    "ChshDatum",
    "CountTable",
    "DensityMatrix",
    "EmptyCounts",
    "EmptyData",
    "FitResult",
    "GammaOutOfRange",
    "LengthMismatch",
    "NoConvergence",
    "NonUnitDirection",
    "NonpositiveError",
    "NotFinite",
    "NotHermitian",
    "NotPositive",
    "PauliDecomposition",
    "SimConfig",
    "Spectrum",
    "TraceNotOne",
    "angle_to_direction",
    "chi_square",
    "chsh_datum_from_counts",
    "chsh_value",
    "compose",
    "decompose",
    "eig_hermitian",
    "eig_symmetric3",
    "estimate_correlation",
    "fit_gamma",
    "group_counts",
    "horodecki_max",
    "joint_probabilities",
    "phi_minus",
    "phi_plus",
    "purity",
    "simulate",
    "singlet",
    "sqrt_psd",
    "tangle",
    "triplet0",
    "unpolarized",
    "validate",
    "werner",
]
