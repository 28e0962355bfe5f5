#!/usr/bin/env python3
"""Spread of the fitted mixing weight versus event count.

Simulates the strongest CHSH setting, E(90, 0, 45, 135), for a Werner state
over many seeds and several event counts, fits gamma per seed, and prints
mean and spread of the fitted values.  The spread should scale as
1/sqrt(N).

Usage: python scripts/estimator_statistics.py [--gamma 0.9] [--seeds 100]
"""
import argparse
from typing import Iterable

import numpy as np

from bellpair.protocol import AngleSettings, chsh_datum_from_counts, fit_gamma
from bellpair.simulate import SimConfig, simulate
from bellpair.states import werner


def fitted_gammas(gamma: float, events: int, seeds: Iterable[int]) -> list[float]:
    """Fitted gamma of one simulated E(90, 0, 45, 135) setting per seed."""
    rho = werner(gamma)
    pairs = AngleSettings(phi1=90.0, phi1p=0.0, phi2=45.0, phi2p=135.0).pairs()
    fitted = []
    for seed in seeds:
        tables = simulate(SimConfig(state=rho, settings=pairs, events_per_setting=events, seed=seed))
        fitted.append(fit_gamma([chsh_datum_from_counts(tables)]).gamma_hat)
    return fitted


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gamma", type=float, default=0.9)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--events", type=int, nargs="+", default=[10_000, 100_000, 1_000_000])
    args = parser.parse_args()

    print(f"true gamma = {args.gamma}, {args.seeds} seeds per event count")
    print(f"{'events':>10}  {'mean':>9}  {'spread':>9}  {'spread*sqrt(N)':>14}")
    for n in args.events:
        fitted = fitted_gammas(args.gamma, n, range(args.seeds))
        mean = float(np.mean(fitted))
        spread = float(np.std(fitted, ddof=1))
        print(f"{n:>10}  {mean:>9.5f}  {spread:>9.2e}  {spread * np.sqrt(n):>14.4f}")


if __name__ == "__main__":
    main()
