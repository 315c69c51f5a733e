"""Limiting behaviour, reference states, photon statistics, time evolution.

The closed-form eigenstates interpolate between number states (eta -> 1) and
coherent/squeezed states (m -> inf, eta = alpha^2/m).  This module provides
the reference states, the fidelity/residual scans that probe those limits at
finite resolution, and the free-field time evolution.  Every reference state
comes from one recursion, squeezed_eigenstate: the eigenstate of
mu a + nu a^dag, whose nu = 0 case is the coherent state.  It stops on its
own tail and raises ValueError when that stop could lie past
REFERENCE_DIM_CAP entries; embed pads it to a larger dimension.
"""

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .fock import AMPLITUDE_CAP as REFERENCE_DIM_CAP, _unit_scaled, basis_state, fidelity, phase_ramp
from .solver import GBSParams, eigenstate

K_RULE_MODES = ("center", "top-offset", "bottom")


@dataclass
class PhotonStatistics:
    """Mean, variance and Mandel Q of a photon-number distribution.

    mandel_q is None (an explicit marker, never NaN) when the mean is below
    1e-14, i.e. for the vacuum.
    """

    mean: float
    variance: float
    mandel_q: float | None
    distribution: np.ndarray


@dataclass(frozen=True)
class KRule:
    """Which eigenstate index to follow along a large-m schedule.

    center: k = floor(m/2) + offset; top-offset: k = m - offset;
    bottom: k = offset.
    """

    mode: str
    offset: int = 0

    def __post_init__(self):
        if self.mode not in K_RULE_MODES:
            raise ValueError(f"k rule must be one of {K_RULE_MODES}, got {self.mode!r}")
        if not isinstance(self.offset, numbers.Integral):
            raise ValueError(f"k rule offset must be an integer, got {self.offset!r}")

    def index(self, m: int) -> int:
        if self.mode == "center":
            k = m // 2 + self.offset
        elif self.mode == "top-offset":
            k = m - self.offset
        else:
            k = self.offset
        if not 0 <= k <= m:
            raise ValueError(f"k rule {self} gives index {k} outside 0..{m}")
        return k


@dataclass(frozen=True)
class LimitSchedule:
    """Fixed alpha = sqrt(eta m), ascending m values, and a k rule."""

    alpha: float
    m_values: tuple[int, ...]
    k_rule: KRule

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if not self.m_values:
            raise ValueError("schedule needs at least one m value")
        if list(self.m_values) != sorted(self.m_values):
            raise ValueError("m values must be ascending")
        for m in self.m_values:
            if m < 1:
                raise ValueError(f"m values must be >= 1, got {m}")
            eta = self.eta(m)
            if not 0.0 < eta < 1.0:
                raise ValueError(
                    f"eta = alpha^2/m = {eta} outside (0, 1) at m = {m}"
                )

    def eta(self, m: int) -> float:
        # a product, not alpha ** 2, which raises OverflowError past 1e154
        return self.alpha * self.alpha / m


def squeezed_eigenstate(mu: complex, nu: complex, lam: complex) -> np.ndarray:
    """Normalized eigenstate of mu a + nu a^dag with eigenvalue lam.

    Solves the two-term recursion mu sqrt(n+1) C_{n+1} = lam C_n - nu sqrt(n)
    C_{n-1} from C_0 = 1; needs |nu/mu| < 1 for the coefficients to
    decay.  At nu = 0 it is the coherent state of amplitude lam/mu.  The
    recursion stops once a bound on its tail's mass and its squared
    truncation residual both lie below 1e-24 of the squared norm; it raises
    before it starts when that stop could lie past REFERENCE_DIM_CAP entries.
    """
    mu = complex(mu)
    nu = complex(nu)
    lam = complex(lam)
    for name, value in (("mu", mu), ("nu", nu), ("lam", lam)):
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if mu == 0:
        raise ValueError("mu must be nonzero")
    ratio_lam, ratio_nu = lam / mu, nu / mu
    mod_mu, mod_lam, mod_nu = abs(mu), abs(ratio_lam), abs(ratio_nu)
    if mod_nu >= 1.0:
        raise ValueError(f"|nu/mu| = {mod_nu} must be < 1 for convergence")
    # |C_{n+2}| <= q max(|C_{n+1}|, |C_n|), q = |lam/mu|/sqrt(n+1) + |nu/mu|: q < 1
    # past n + 1 > e^2, e = |lam/mu|/(1 - |nu/mu|), and q <= (1 + |nu/mu|)/2 past
    # 4 e^2, where the stop test below holds within log(1e24 max(4/(1 - |nu/mu|),
    # |mu|^2 REFERENCE_DIM_CAP)) / -log q entries, plus 16 for its stride of 8
    # (e * e: e ** 2 raises OverflowError past 1e154)
    e = mod_lam / (1.0 - mod_nu)
    need = math.log(1e24) + max(math.log(4.0 / (1.0 - mod_nu)),
                                2.0 * math.log(mod_mu) + math.log(REFERENCE_DIM_CAP))
    last = 4.0 * e * e + need / -math.log1p((mod_nu - 1.0) / 2.0) + 16.0
    if not last < REFERENCE_DIM_CAP:
        raise ValueError(f"reference state may need {last:.4g} entries, above REFERENCE_DIM_CAP = {REFERENCE_DIM_CAP}")
    c = [1.0 + 0j, ratio_lam]
    rescales = []  # (entries so far, divisor)
    prev, cur, total = c[0], ratio_lam, 1.0 + mod_lam * mod_lam  # total: squared norm so far
    root_next = 1.0  # sqrt(n + 1)
    for n in range(1, REFERENCE_DIM_CAP):
        root, root_next = root_next, math.sqrt(n + 1)
        prev, cur = cur, (ratio_lam * cur - ratio_nu * root * prev) / root_next
        big = abs(cur)
        # C_n grows like |lam/mu|^n / sqrt(n!) before it decays: rescale before
        # the squared norm overflows; the earliest entries may underflow to 0
        if big > 1e100:
            rescales.append((n + 1, big))
            prev, cur, total, big = prev / big, cur / big, total / (big * big), 1.0
        c.append(cur)
        total += big * big
        # keep C_0..C_n: the tail from C_{n+1} on holds at most 2 peak^2/(1 - q^2),
        # and the residual is |mu| sqrt(n+1) |C_{n+1}|
        if n % 8 == 0:
            q, peak = mod_lam / root_next + mod_nu, max(big, abs(prev))
            if q < 1.0 and 2.0 * peak * peak <= 1e-24 * (1.0 - q * q) * total:
                if mod_mu * peak * mod_mu * peak * (n + 1) <= 1e-24 * total:
                    break
    body = np.array(c[:-1])
    for stop, big in rescales:
        body[:stop] /= big
    return body / np.linalg.norm(body)


def photon_statistics(v: np.ndarray) -> PhotonStatistics:
    """Photon-number mean, variance and Mandel Q of a state, normalized or not.

    A state whose largest modulus lies outside [2^-201, 2^200) is scaled by
    an exact power of two first (fock._unit_scaled), so its squared moduli
    neither overflow nor all underflow.
    """
    p = np.abs(_unit_scaled(np.asarray(v, dtype=complex))) ** 2
    total = p.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(f"state must have a finite nonzero norm, got squared norm {total}")
    p = p / total
    n = np.arange(len(p))
    mean = float(np.sum(n * p))
    variance = float(np.sum(n * n * p) - mean * mean)
    mandel_q = (variance - mean) / mean if mean > 1e-14 else None
    return PhotonStatistics(mean=mean, variance=variance, mandel_q=mandel_q, distribution=p)


def embed(v: np.ndarray, dim: int) -> np.ndarray:
    """Zero-pad a state to a larger dimension."""
    v = np.asarray(v, dtype=complex)
    if dim < len(v):
        raise ValueError(f"cannot embed dim {len(v)} into smaller dim {dim}")
    out = np.zeros(dim, dtype=complex)
    out[: len(v)] = v
    return out


def time_evolve(v: np.ndarray, omega: float, t: float) -> np.ndarray:
    """Free single-mode evolution: C_n -> e^{-i omega t (n + 1/2)} C_n (hbar = 1).

    The phases are the global e^{-i omega t / 2} times the ramp
    e^{-i n omega t} of fock.phase_ramp.  Raises ValueError when the largest
    phase, omega t (m + 1/2) at n = m, is not finite: the evolved amplitudes
    would all be NaN.
    """
    v = np.asarray(v, dtype=complex)
    omega_t = omega * t
    top = omega_t * (len(v) - 0.5)
    if not math.isfinite(top):
        raise ValueError(f"omega*t*(m + 1/2) must be finite, got {top!r}")
    return v * (cmath.exp(-0.5j * omega_t) * phase_ramp(-omega_t, len(v)))


def _number_scan(mu: complex, nu: complex, m: int, k: int, eta_schedule):
    """(eta, fidelity against |k>, k-th eigenstate) at each eta of the schedule."""
    for eta in eta_schedule:
        # the eigenstate first, so that the solver's index check names a bad k
        state = eigenstate(GBSParams(mu=mu, nu=nu, eta=eta, m=m), k)
        yield float(eta), fidelity(state, basis_state(k, m + 1)), state


def number_limit_scan(
    mu: complex, nu: complex, m: int, k: int, eta_schedule
) -> list[tuple[float, float]]:
    """Fidelity of the k-th eigenstate against |k> along an eta -> 1 schedule."""
    return [(eta, fid) for eta, fid, _ in _number_scan(mu, nu, m, k, eta_schedule)]


def _limit_target(mu: complex, nu: complex, alpha: float, rule: KRule) -> complex:
    """Eigenvalue of mu a + nu a^dag that the scanned eigenstate approaches.

    Along the center rule the limit state satisfies (mu a + nu a^dag) v =
    (alpha/2) v.  The top-offset and bottom rules only have limits for
    nu = 0, where they approach the coherent state of amplitude alpha/mu and
    the vacuum respectively.
    """
    if rule.mode == "center":
        return alpha / 2.0
    if nu != 0:
        raise ValueError(f"the {rule.mode} rule has no large-m limit unless nu = 0")
    return complex(alpha) if rule.mode == "top-offset" else 0.0j


def squeezed_limit_scan(
    mu: complex, nu: complex, schedule: LimitSchedule
) -> list[tuple[int, float, float]]:
    """(m, residual, fidelity) rows towards the squeezed/coherent/vacuum limit.

    residual is |(mu a + nu a^dag - target) v| with the eigenstate embedded in
    at least m + 2 entries, so that the row nu sqrt(m+1) v_m counts whatever
    the reference's length, read off the two bands of the truncated ladder
    operators, (a v)_n = sqrt(n+1) v_{n+1} and (a^dag v)_n = sqrt(n) v_{n-1};
    fidelity is against the squeezed eigenstate with that target eigenvalue.
    """
    mu = complex(mu)
    nu = complex(nu)
    target = _limit_target(mu, nu, schedule.alpha, schedule.k_rule)
    # the points first: GBSParams names an out-of-range mu before the reference sizes itself
    points = [GBSParams(mu=mu, nu=nu, eta=schedule.eta(m), m=m) for m in schedule.m_values]
    reference = squeezed_eigenstate(mu, nu, target)
    rows = []
    for m, p in zip(schedule.m_values, points):
        state = eigenstate(p, schedule.k_rule.index(m))
        dim = max(m + 2, len(reference))
        v = embed(state, dim)
        ref = embed(reference, dim)
        root = np.sqrt(np.arange(1, dim))
        r = -target * v
        r[:-1] += mu * root * v[1:]
        r[1:] += nu * root * v[:-1]
        rows.append((int(m), float(np.linalg.norm(r)), fidelity(v, ref)))
    return rows


def coherent_amplitude_discrepancy(alpha: float, m_values) -> dict:
    """Settle the center-rule limit amplitude: alpha/2 versus alpha/sqrt(2).

    Follows the nu = 0, mu = 1 center eigenstate along the schedule and
    reports its fidelity against coherent states of both candidate
    amplitudes; the verdict names whichever converges to 1.
    """
    points = [GBSParams(mu=1 + 0j, nu=0.0, eta=alpha * alpha / m, m=m) for m in m_values]
    # the coherent references are the nu = 0 squeezed eigenstates
    references = [squeezed_eigenstate(1, 0, alpha / 2.0), squeezed_eigenstate(1, 0, alpha / math.sqrt(2.0))]
    half = []
    root2 = []
    for p in points:
        state = eigenstate(p, p.m // 2)
        for ref, out in zip(references, (half, root2)):
            dim = max(len(state), len(ref))
            out.append(fidelity(embed(state, dim), embed(ref, dim)))
    verdict = "alpha/2" if half[-1] >= root2[-1] else "alpha/sqrt(2)"
    return {
        "m_values": [int(m) for m in m_values],
        "fidelity_alpha_half": half,
        "fidelity_alpha_over_sqrt2": root2,
        "verdict": verdict,
    }
