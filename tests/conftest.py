import math
import sys

import numpy as np
import pytest

from bellpair.states import DensityMatrix, validate


def neumaier_sum(values, start=0):
    """``sum`` as CPython 3.12 adds floats: left to right, Neumaier-compensated."""
    values = list(values)
    if start != 0 or not values or not all(type(x) is float for x in values):
        return sum(values, start)
    total = comp = 0.0
    for x in values:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


@pytest.fixture
def python312_sum(monkeypatch):
    """Every loaded bellpair module sees :func:`neumaier_sum` as ``sum``."""
    for name, module in list(sys.modules.items()):
        if name == "bellpair" or name.startswith("bellpair."):
            monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)


def random_pure_ket(rng: np.random.Generator) -> np.ndarray:
    ket = rng.normal(size=4) + 1j * rng.normal(size=4)
    return ket / np.linalg.norm(ket)


def random_density_matrix(rng: np.random.Generator) -> DensityMatrix:
    """Hilbert-Schmidt-distributed full-rank two-qubit state."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return validate(m / np.trace(m).real)


def random_mixture(rng: np.random.Generator, max_terms: int = 4) -> DensityMatrix:
    """Random convex mixture of Haar-random pure states."""
    k = int(rng.integers(1, max_terms + 1))
    weights = rng.dirichlet(np.ones(k))
    m = np.zeros((4, 4), dtype=complex)
    for w in weights:
        ket = random_pure_ket(rng)
        m += w * np.outer(ket, ket.conj())
    return validate(m)


def haar_unitary2(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_unit3(rng: np.random.Generator, n: int = 1) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)
