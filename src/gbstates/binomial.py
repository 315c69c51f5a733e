"""Binomial states: Fock-basis amplitudes, ladder characterization, displaced form.

The binomial state with probability eta on |0>..|m> has photon distribution
C(m,n) eta^n (1-eta)^(m-n).  It is simultaneously the top eigenstate of
sqrt(eta) N + sqrt(1-eta) J+ and the rotated vacuum exp(-r(J+ - J-))|0> with
sin r = sqrt(eta).
"""

import math
from dataclasses import dataclass

import numpy as np

from .displacement import DisplacementParams, displacement
from .fock import basis_state, check_photon_cap
from .solver import GBSParams, bands

# math.comb is exact and C(m, m/2) stays inside double range this far;
# beyond it the log-gamma route avoids overflow at some cost in ulps.
_EXACT_COMB_MAX = 600


@dataclass(frozen=True)
class BinomialParams:
    eta: float
    m: int

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        check_photon_cap(self.m)


def binomial_amplitudes(p: BinomialParams) -> np.ndarray:
    """Nonnegative real amplitudes whose squares are the binomial pmf.

    eta = 0 and eta = 1 return the exact number states |0> and |m>.
    """
    eta, m = p.eta, p.m
    if eta in (0.0, 1.0):
        return basis_state(0 if eta == 0.0 else m, m + 1)
    n = np.arange(m + 1)
    if m <= _EXACT_COMB_MAX:
        comb = np.array([math.comb(m, int(k)) for k in n], dtype=float)
        amps = np.sqrt(comb) * np.sqrt(eta) ** n * np.sqrt(1.0 - eta) ** (m - n)
    else:
        log_comb = np.array(
            [math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1) for k in n]
        )
        amps = np.exp(0.5 * (log_comb + n * math.log(eta) + (m - n) * math.log(1.0 - eta)))
    return amps.astype(complex)


def ladder_residual(p: BinomialParams) -> float:
    """Norm of (sqrt(eta) N + sqrt(1-eta) J+ - sqrt(eta) m) applied to the state.

    Zero in exact arithmetic, and below 1e-12 for m <= 60: the operator is
    L - sqrt(eta) m/2 at mu = 1, nu = 0 (N = m/2 - J0), whose top eigenstate,
    the nu = 0 generalized binomial state k = m, is the binomial state.
    """
    if not 0.0 < p.eta < 1.0:
        raise ValueError(f"ladder form needs 0 < eta < 1, got {p.eta}")
    v = binomial_amplitudes(p)
    _, diag, sup = bands(GBSParams(1.0, 0.0, p.eta, p.m))  # nu = 0: no subdiagonal
    res = (diag - math.sqrt(p.eta) * p.m / 2) * v
    res[:-1] += sup * v[1:]
    return float(np.linalg.norm(res))


def binomial_displacement_form(p: BinomialParams) -> np.ndarray:
    """The same state built as exp(-r (J+ - J-))|0> with sin r = sqrt(eta)."""
    if not 0.0 < p.eta < 1.0:
        raise ValueError(f"displacement form needs 0 < eta < 1, got {p.eta}")
    r = math.asin(math.sqrt(p.eta))
    return displacement(DisplacementParams(r=r, theta=math.pi, m=p.m)) @ basis_state(0, p.m + 1)
