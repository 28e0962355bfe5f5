#!/usr/bin/env python3
"""Accuracy of ``bellpair``'s numbers against 40-digit mpmath oracles of the same float matrices.

The corpus is fixed by its seed: random states of rank 1-4 (a 4 x rank complex
Gaussian factor g, rho = g g^dag / Tr), Werner states within 0.01 of the two
thresholds gamma = 1/3 (separability) and 1/sqrt(2) (CHSH), the named states,
near-floor states with one eigenvalue in [-1e-8, 0), and near-degenerate
T-states (A = P = 0) with D = diag(d1, d2, d2 + delta) in a random axis order,
d1 and d2 negative and delta within +-[1e-14, 1e-12], so D^T D has a pair of
eigenvalues closer than the 1e-12 run of the settings tie rule.  Each state
goes through ``states.validate``; its kept matrix rho is the float matrix
every oracle starts from.

Per class it reports the median and the largest error of

* ``tangle``, ``M``, ``max_violation`` and ``purity`` from
  ``bell.horodecki_max``, as absolute errors, against the 40-digit tangle of
  rho (Wootters' route on the clamped eigendecomposition, oracle
  ``tangle_mp``), M and 2 sqrt(M) from the 40-digit D of rho, and Tr(rho^2);
* the raw eigenvalue lists of the Jacobi kernel, ``linalg.jacobi_eigenvalues``,
  on three float matrices: rho itself, the tangle's tau^dag tau built from the
  stored factor, and D^T D built from ``states.decompose``.  Each error is
  max |w - w_mp| / max |w_mp| over the sorted lists, against ``mpmath.eigh``
  of that same float matrix at 40 digits.

Each row prints its bound.  The exit code is 1 when any largest error
exceeds its bound, else 0.  The oracles live in ``tests/oracles.py``.

Usage: python scripts/accuracy.py [--per-class 100] [--seed 20261021]
Another checkout is measured by putting its ``src`` first: PYTHONPATH=OTHER/src.
"""
import argparse
import statistics
import sys
from pathlib import Path

import mpmath
import numpy as np

_TESTS = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS not in sys.path:
    sys.path.insert(0, _TESTS)

import bellpair  # noqa: E402
from bellpair.bell import horodecki_max  # noqa: E402
from bellpair.linalg import hermitian_lists, jacobi_eigenvalues  # noqa: E402
from bellpair.states import NAMED_STATES, PauliDecomposition, compose, decompose, validate, werner  # noqa: E402
from oracles import correlation_mp, eigvalsh_mp, tangle_mp  # noqa: E402

ULP = 2.0 ** -52
_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))  # sigma_y (x) sigma_y
# Largest error allowed, in units of 2^-52: absolute for the four outputs, relative to the
# largest eigenvalue magnitude for the eigenvalue lists.  The tangle's is wider because its l_k
# are square roots of the eigenvalues of tau^dag tau: an eigenvalue off by e moves a small l_k
# by e / (2 l_k), up to 3.7e-15 over 400 random rank-2 states.
BOUNDS = {"tangle": 32 * ULP, "M": 8 * ULP, "max_violation": 8 * ULP, "purity": 2 * ULP,
          "eig rho": 2.5 * ULP, "eig tau^dag tau": 2.5 * ULP, "eig D^T D": 2.5 * ULP}
# A near-floor state's factor drops its eigenvalue in [-1e-8, 0) where the oracle clamps it to 0,
# so its tangle moves by about that eigenvalue's size.
FLOOR_TANGLE_BOUND = 1e-7


def corpus(per_class: int, seed: int) -> list[tuple[str, object]]:
    """(class name, validated state) pairs, ``per_class`` per generated class."""
    rng = np.random.default_rng(seed)
    states = []
    for rank in range(1, 5):
        for _ in range(per_class):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            m = g @ g.conj().T
            states.append((f"rank {rank}", validate(m / np.trace(m).real)))
    for name, threshold in (("werner ~1/3", 1 / 3), ("werner ~1/sqrt2", 2 ** -0.5)):
        gammas = [threshold] + list(threshold + rng.uniform(-0.01, 0.01, per_class - 1))
        states += [(name, werner(float(g))) for g in gammas]
    states += [("named", make()) for make in NAMED_STATES.values()]
    for k in range(per_class):
        positive = 1 + k % 3
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        neg = -rng.uniform(0.0, 1e-8)
        w = np.concatenate([rng.dirichlet(np.ones(positive)) * (1.0 - neg), [neg], np.zeros(3 - positive)])
        states.append(("near floor", validate((u * w) @ u.conj().T)))
    # with every d_k < 0, rho is PSD when each |d_j| + |d_k| <= 1 + |d_i|: here |d1| < 1, and |d2| and
    # |d3| are at most about 0.5 and differ by at most 1e-12
    for _ in range(per_class):
        d1, d2 = -rng.uniform(0.05, 0.99), -rng.uniform(0.05, 0.5)
        delta = rng.choice([-1.0, 1.0]) * rng.uniform(1e-14, 1e-12)
        d = np.diag(rng.permutation([d1, d2, d2 + delta]))
        states.append(("near-degenerate", compose(PauliDecomposition(A=(0, 0, 0), P=(0, 0, 0), D=d))))
    return states


def _mirrored(m: np.ndarray) -> np.ndarray:
    """The lower triangle of m, its conjugate mirror and the real diagonal: exactly Hermitian."""
    low = np.tril(m, -1)
    return low + low.conj().T + np.diag(np.diag(m).real)


def _eig_error(m: np.ndarray, dtype: type) -> float:
    """max |w - w_mp| / max |w_mp| for the kernel's eigenvalues w of the exactly Hermitian float ``m``."""
    w = sorted(jacobi_eigenvalues(hermitian_lists(m, len(m), dtype)))
    w_mp = eigvalsh_mp(m)
    scale = max(abs(x) for x in w_mp) or 1
    return float(max(abs(x - y) for x, y in zip(w, w_mp)) / scale)


def errors(rho) -> dict[str, float]:
    """Error of each reported quantity for one validated state."""
    report = horodecki_max(rho)
    mat = np.array(rho.mat)
    with mpmath.workdps(40):
        d = correlation_mp(mat)
        m_mp = sum(max(x, 0) for x in list(mpmath.eigsy(d.T * d, eigvals_only=True))[1:])
        purity_mp = mpmath.fsum(mpmath.mpf(x.real) ** 2 + mpmath.mpf(x.imag) ** 2 for row in rho.mat for x in row)
        violation_mp = 2 * mpmath.sqrt(m_mp)
    f = np.array(rho.factor)
    tau = f.T @ _YY @ f
    d_float = np.array(decompose(rho).D)
    return {
        "tangle": float(abs(report.tangle - tangle_mp(mat))),
        "M": float(abs(report.M - m_mp)),
        "max_violation": float(abs(report.max_violation - violation_mp)),
        "purity": float(abs(report.purity - purity_mp)),
        "eig rho": _eig_error(mat, complex),
        "eig tau^dag tau": _eig_error(_mirrored(tau.conj().T @ tau), complex),
        "eig D^T D": _eig_error(_mirrored(d_float.T @ d_float), float),
    }


def bound(name: str, quantity: str) -> float:
    return FLOOR_TANGLE_BOUND if (name, quantity) == ("near floor", "tangle") else BOUNDS[quantity]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-class", type=int, default=100, help="states per generated class (at least 1)")
    parser.add_argument("--seed", type=int, default=20261021)
    args = parser.parse_args(argv)
    if args.per_class < 1:
        parser.error("--per-class must be at least 1")

    by_class: dict[str, dict[str, list[float]]] = {}
    for name, rho in corpus(args.per_class, args.seed):
        for quantity, err in errors(rho).items():
            by_class.setdefault(name, {}).setdefault(quantity, []).append(err)

    print(f"# bellpair {Path(bellpair.__file__).parent}; seed {args.seed}, {args.per_class} per class")
    print(f"{'class':<16} {'quantity':<16} {'n':>4} {'median':>9} {'max':>9} {'bound':>9}")
    over = 0
    for name, table in by_class.items():
        for quantity, errs in table.items():
            limit = bound(name, quantity)
            worst = max(errs)
            flag = "" if worst <= limit else "  OVER"
            over += bool(flag)
            print(f"{name:<16} {quantity:<16} {len(errs):>4} {statistics.median(errs):>9.2e} {worst:>9.2e}"
                  f" {limit:>9.2e}{flag}")
    print(f"{over} rows over their bound" if over else "every row within its bound")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
