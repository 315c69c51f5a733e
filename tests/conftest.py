"""Hypothesis settings for the suite: derandomized, so every run draws the
same examples, and without a per-example deadline, since solve time grows
with m and with the BLAS thread setting.

Also the dense references the tests compare against, which the package
itself never builds: the annihilation operator and L from the dense
su(2) generators."""

import math

import numpy as np
from hypothesis import settings

from gbstates.fock import hp_generators

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


def dense_reference(p):
    """L = sqrt(1-eta)(mu J+ + nu J-) - sqrt(eta) J0 from the dense generators."""
    j0, jp, jm = hp_generators(p.m)
    return math.sqrt(1.0 - p.eta) * (p.mu * jp + p.nu * jm) - math.sqrt(p.eta) * j0
