"""SU(2) displacement operators D(zeta) = exp(zeta J+ - zeta* J-).

D(zeta) = exp(-iH) is a spin-m/2 Wigner rotation; H = i(zeta J+ - zeta* J-)
is r Q X Q^dag with Q a diagonal phase and X = J+ + J- real with eigenvalues
2k - m, so one real eigendecomposition gives D exactly unitary.  The module
also covers its disentangled (normal-ordered) product form, which serves as
an independent multiprecision cross-check, and the closed-form adjoint action
on the generators that the solver uses to rotate away the J- coefficient.
"""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .fock import hp_generators


@dataclass(frozen=True)
class DisplacementParams:
    """Rotation magnitude r >= 0, phase theta in (-pi, pi], photon cap m.

    zeta = r e^{i theta}.  Parameters produced from a constraint root always
    satisfy r < pi/2 (r is an arctangent there), but direct construction with
    larger r is allowed.
    """

    r: float
    theta: float
    m: int

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"rotation magnitude must be >= 0, got {self.r}")
        if not -math.pi < self.theta <= math.pi:
            raise ValueError(f"phase must lie in (-pi, pi], got {self.theta}")
        if self.m < 0:
            raise ValueError(f"photon cap must be >= 0, got {self.m}")

    @property
    def zeta(self) -> complex:
        return self.r * complex(math.cos(self.theta), math.sin(self.theta))


def delta_to_zeta(delta: complex, m: int) -> DisplacementParams:
    """Invert delta = e^{-i theta} tan r for the rotation parameters.

    r = arctan|delta| lands in [0, pi/2); theta = -arg(delta) on the branch
    (-pi, pi], with theta = 0 when delta vanishes.
    """
    delta = complex(delta)
    r = math.atan(abs(delta))
    if delta == 0:
        theta = 0.0
    else:
        theta = -math.atan2(delta.imag, delta.real)
        if theta <= -math.pi:
            theta = math.pi
    return DisplacementParams(r=r, theta=theta, m=m)


def displacement(p: DisplacementParams) -> np.ndarray:
    """Unitary D(zeta) = exp(-iH) on dim m+1, built from one real basis.

    H = i(zeta J+ - zeta* J-) = r Q X Q^dag with Q = diag(e^{-i n (theta + pi/2)})
    and X = J+ + J- real, symmetric, tridiagonal and a function of m alone.
    With X = V diag(lambda) V^T and the exact eigenvalues lambda_k = 2k - m,
    D = Q (V cos(r lambda) V^T - i V sin(r lambda) V^T) Q^dag.
    """
    if p.r == 0.0:
        return np.eye(p.m + 1, dtype=complex)
    n = np.arange(p.m + 1)
    off = np.sqrt(n[1:] * (p.m + 1 - n[1:]), dtype=float)  # sqrt((n+1)(m-n)) on the integers
    _, v = np.linalg.eigh(np.diag(off, -1))  # eigh reads only the lower triangle of X
    angle = p.r * (2 * n - p.m)
    d = np.empty((p.m + 1, p.m + 1), dtype=complex)
    d.real = (v * np.cos(angle)) @ v.T
    d.imag = (v * -np.sin(angle)) @ v.T
    # phases reduced mod 2 pi before exp: as a power they cost a decade of unitarity
    q = np.exp(-1j * ((n * (p.theta + math.pi / 2)) % (2 * math.pi)))
    d *= np.outer(q, q.conj())
    return d


def adjoint_weights(p: DisplacementParams) -> tuple[tuple[complex, ...], ...]:
    """Rows w with D^-1 G_i D = sum_j w[i][j] G_j for G = (J+, J-, J0).

    The adjoint action of the rotation mixes the generators with sin/cos
    weights of r and 2r and phases e^{+-i theta}.
    """
    c2 = math.cos(p.r) ** 2
    s2 = math.sin(p.r) ** 2
    s2r = math.sin(2 * p.r)
    eip = complex(math.cos(p.theta), math.sin(p.theta))
    eim = eip.conjugate()
    return (
        (c2, -s2 * eim * eim, -s2r * eim),
        (-s2 * eip * eip, c2, -s2r * eip),
        (0.5 * s2r * eip, 0.5 * s2r * eim, math.cos(2 * p.r)),
    )


def conjugated_generators(
    p: DisplacementParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed forms of D^-1 J+ D, D^-1 J- D, D^-1 J0 D.

    Assembled from the bare generators with the adjoint weights, without any
    matrix exponential.
    """
    j0, jp, jm = hp_generators(p.m)
    return tuple(w_p * jp + w_m * jm + w_0 * j0 for w_p, w_m, w_0 in adjoint_weights(p))


def disentangled_displacement(xi: complex, m: int) -> np.ndarray:
    """D(xi) as exp(-tau* J-) exp(-ln(1+|tau|^2) J0) exp(tau J+).

    tau = (xi/|xi|) tan|xi|.  The two outer factors are exact finite
    polynomials (J+- are nilpotent), the middle one is diagonal.  |xi| must
    stay away from pi/2 + k pi, where tan blows up.

    The corner entries of the product suffer cancellation of order
    (1+|tau|^2)^(m/2); the three factors are therefore built and multiplied
    with enough mpmath guard digits to return full double-precision entries.
    On later tan branches (|xi| > pi/2) the product reproduces the rotation
    only up to the double-cover sign (-1)^m, a global phase.
    """
    if m < 0:
        raise ValueError(f"photon cap must be >= 0, got {m}")
    xi = complex(xi)
    absxi = abs(xi)
    if abs(math.remainder(absxi, math.pi)) > math.pi / 2 - 1e-8:
        raise ValueError(f"|xi| = {absxi} is within 1e-8 of a tan singularity")
    if absxi == 0.0 or m == 0:
        return np.eye(m + 1, dtype=complex)

    tan_abs = math.tan(absxi)
    # guard digits to absorb the (1+|tau|^2)^(m/2) cancellation in the corners
    guard = max(0, int(math.ceil(0.5 * m * math.log10(1.0 + tan_abs * tan_abs))))
    d = m + 1
    with mp.workdps(20 + guard):
        tau = mp.mpc(xi.real, xi.imag) / absxi * mp.tan(absxi)
        tau_c = mp.conj(tau)
        # exp(tau J+): upper triangular, entry (i, j) = tau^(j-i)/(j-i)! *
        # sqrt(j!/i! * (m-i)!/(m-j)!); exp(-tau* J-) is the mirrored lower
        # factor.  These are the exact terminating series of the nilpotent
        # generators.
        fact = [mp.factorial(k) for k in range(d)]
        up = [[mp.mpc(0)] * d for _ in range(d)]
        lo = [[mp.mpc(0)] * d for _ in range(d)]
        for i in range(d):
            up[i][i] = mp.mpc(1)
            lo[i][i] = mp.mpc(1)
            for j in range(i + 1, d):
                w = mp.sqrt(fact[j] / fact[i] * fact[m - i] / fact[m - j]) / fact[j - i]
                up[i][j] = tau ** (j - i) * w
                lo[j][i] = (-tau_c) ** (j - i) * w
        lam = mp.log(1 + abs(tau) ** 2)
        diag = [mp.e ** (-lam * (mp.mpf(m) / 2 - n)) for n in range(d)]
        lo_diag = [[lo[i][l] * diag[l] for l in range(i + 1)] for i in range(d)]
        up_cols = [[up[l][j] for l in range(j + 1)] for j in range(d)]
        out = np.empty((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                terms = min(i, j) + 1
                out[i, j] = complex(mp.fdot(lo_diag[i][:terms], up_cols[j][:terms]))
    return out
