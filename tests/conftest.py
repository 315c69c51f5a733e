"""Hypothesis settings for the suite: derandomized, so every run draws the
same examples, and without a per-example deadline, since solve time grows
with m and with the BLAS thread setting.

Also the dense references the tests compare against, which the package
itself never builds: the annihilation operator, the Holstein-Primakoff
su(2) generators, their commutator, and L from the generators.  The
generators are built entry by entry with math.sqrt, not from
fock.hop_squares, so that they check the bands the package reads."""

import math

import numpy as np
from hypothesis import settings

settings.register_profile("gbstates", derandomize=True, deadline=None)
settings.load_profile("gbstates")


def annihilation_operator(m: int) -> np.ndarray:
    """Truncated annihilation operator, a|n> = sqrt(n)|n-1>, on dim m+1."""
    if m < 0:
        raise ValueError(f"photon cap must be >= 0, got {m}")
    a = np.zeros((m + 1, m + 1), dtype=complex)
    for n in range(1, m + 1):
        a[n - 1, n] = math.sqrt(n)
    return a


def hp_generators(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (J0, J+, J-) on dim m+1: J0 = m/2 - N, J+ = sqrt(m-N) a, J- = J+^dag.

    J+ moves |n+1> to |n> with sqrt((n+1)(m-n)), the product formed on the
    integers; |0> is the highest-weight state.
    """
    j0 = np.diag(m / 2 - np.arange(m + 1)).astype(complex)
    jp = np.zeros((m + 1, m + 1), dtype=complex)
    for k in range(m):
        jp[k, k + 1] = math.sqrt((k + 1) * (m - k))
    return j0, jp, jp.conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def frame_scale(p) -> float:
    """|mu| + |nu| + 1, the size of M's entries: a reference for rounding in the frame."""
    return abs(p.mu) + abs(p.nu) + 1.0


def dense_reference(p):
    """L = sqrt(1-eta)(mu J+ + nu J-) - sqrt(eta) J0 from the dense generators."""
    j0, jp, jm = hp_generators(p.m)
    return math.sqrt(1.0 - p.eta) * (p.mu * jp + p.nu * jm) - math.sqrt(p.eta) * j0
