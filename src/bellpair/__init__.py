"""Entanglement and CHSH-Bell analysis of two-qubit states.

Quantifies how strongly a two-qubit state (the Werner singlet/unpolarized
mixture being the central case) can violate the CHSH inequality, estimates
spin correlations from coincidence counts, and fits the mixing weight to
measured data. Each name is imported from the submodule that defines it,
as in ``from bellpair.bell import horodecki_max``.
"""
__version__ = "0.1.0"
