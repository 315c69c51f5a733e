"""Reference computations made apart from gbstates, and the checks built on them.

Nothing here imports gbstates.  The operator L = sqrt(1-eta)(mu J+ + nu J-)
- sqrt(eta) J0 is rebuilt from the Holstein-Primakoff matrix elements as
three bands, eigenvectors come from one banded LAPACK solve (or, for nu = 0,
the triangular recurrence), the spectrum from the invariant
eta + 4(1-eta) mu nu, limit states from their exponential closed forms, the
rotation from scipy's expm and the binomial pmf from exact rational
arithmetic.

Every check raises CheckError with a message naming the violated bound; the
bounds are the ones `gbstates verify` states for the same property.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

SPECTRUM_TOL = 1e-9        # eigenvalue distance, times 1 + max|eigenvalue|
RESIDUAL_TOL = 1e-10       # |L v - lambda v|, times |L|_F
NORM_TOL = 1e-12           # | |v| - 1 |
ORTHONORMAL_TOL = 1e-10    # max |V^dag V - I|
FORMS_INFIDELITY_TOL = 1e-11
DISENTANGLE_TOL = 1e-10    # Frobenius distance to expm
PMF_TOL = 1e-14            # termwise, amplitudes squared vs the exact pmf
PMF_FORM_TOL = 1e-12       # termwise, for the displaced-vacuum form
FIDELITY_TOL = 1e-8        # reported limit fidelity vs the reference one
MONOTONE_SLACK = 1e-12

GENERIC = "generic"
HERMITIAN = "degenerate-a-plus-zero"
DEFECTIVE = "defective-a-zero-zero"


def _scipy_linalg():
    """scipy.linalg, imported on first use: only two checks need it, and
    importing it costs every worker a quarter of a second and 10 MiB."""
    import scipy.linalg

    return scipy.linalg


class CheckError(AssertionError):
    """A program output disagrees with the reference computation."""


def hp_bands(mu: complex, nu: complex, eta: float, m: int):
    """(sub, diag, sup) of L; J+|n+1> = sqrt((n+1)(m-n))|n>, J0 = m/2 - N."""
    n = np.arange(m)
    w = np.sqrt(((n + 1) * (m - n)).astype(float))
    s1 = math.sqrt(1.0 - eta)
    sup = s1 * complex(mu) * w
    sub = s1 * complex(nu) * w
    diag = (-math.sqrt(eta) * (m / 2.0 - np.arange(m + 1))).astype(complex)
    return sub, diag, sup


def frobenius(bands) -> float:
    return float(math.sqrt(sum(float(np.sum(np.abs(b) ** 2)) for b in bands)))


def apply_bands(bands, v: np.ndarray) -> np.ndarray:
    """L @ v for a vector or a matrix of column vectors."""
    sub, diag, sup = bands
    v = np.asarray(v, dtype=complex)
    d = diag if v.ndim == 1 else diag[:, None]
    out = d * v
    if len(sup):
        lo = sub if v.ndim == 1 else sub[:, None]
        hi = sup if v.ndim == 1 else sup[:, None]
        out[:-1] += hi * v[1:]
        out[1:] += lo * v[:-1]
    return out


def invariant(mu: complex, nu: complex, eta: float) -> complex:
    """A0^2 = eta + 4(1-eta) mu nu, unchanged by the SU(2) rotation."""
    return eta + 4.0 * (1.0 - eta) * complex(mu) * complex(nu)


def invariant_spectrum(mu: complex, nu: complex, eta: float, m: int) -> np.ndarray:
    s = cmath.sqrt(invariant(mu, nu, eta))
    return s * (m / 2.0 - np.arange(m + 1))


def predict_kind(mu: complex, nu: complex, eta: float) -> str:
    """Branch from mu = nu* and from the invariant; refuses points near a threshold."""
    mu, nu = complex(mu), complex(nu)
    scale = abs(mu) + abs(nu) + 1.0
    if mu == nu.conjugate():
        return HERMITIAN
    inv = invariant(mu, nu, eta)
    if abs(inv) <= 1e-14 * scale:
        return DEFECTIVE
    if abs(inv) < 1e-3 * scale or abs(mu - nu.conjugate()) < 1e-3 * scale:
        raise ValueError(f"point mu={mu}, nu={nu}, eta={eta} lies too near a branch threshold")
    return GENERIC


def check_kind(kind: str, mu: complex, nu: complex, eta: float) -> None:
    want = predict_kind(mu, nu, eta)
    if kind != want:
        raise CheckError(f"branch {kind!r}, expected {want!r} for mu={mu}, nu={nu}, eta={eta}")


def check_spectrum(values, mu: complex, nu: complex, eta: float, m: int) -> None:
    """values must equal {s (m/2 - k)} as a multiset, s^2 the invariant."""
    values = np.asarray(values, dtype=complex)
    if values.shape != (m + 1,):
        raise CheckError(f"{values.shape} eigenvalues, expected {m + 1}")
    s = cmath.sqrt(invariant(mu, nu, eta))
    tol = SPECTRUM_TOL * (1.0 + abs(s) * m / 2.0)
    if abs(s) <= tol:
        err = float(np.abs(values).max())
        if err > tol:
            raise CheckError(f"defective spectrum off zero by {err:.3e} > {tol:.3e}")
        return
    twice = np.rint((2.0 * values / s).real).astype(int)
    want = np.arange(-m, m + 1, 2)
    if not np.array_equal(np.sort(twice), want):
        raise CheckError("eigenvalues are not the multiset s (m/2 - k), k = 0..m")
    err = float(np.abs(values - s * twice / 2.0).max())
    if err > tol:
        raise CheckError(f"eigenvalue error {err:.3e} > {tol:.3e}")


def residual_ratio(bands, values, vectors) -> float:
    """max_k |L v_k - lambda_k v_k| / |L|_F; also checks every |v_k| = 1."""
    v = np.column_stack([np.asarray(x, dtype=complex) for x in vectors])
    norms = np.linalg.norm(v, axis=0)
    if float(np.abs(norms - 1.0).max()) > NORM_TOL:
        raise CheckError(f"eigenstate norm off 1 by {float(np.abs(norms - 1.0).max()):.3e}")
    lam = np.asarray(values, dtype=complex)
    res = np.linalg.norm(apply_bands(bands, v) - v * lam[None, :], axis=0)
    return float(res.max()) / (frobenius(bands) or 1.0)


def check_eigenpairs(bands, values, vectors) -> float:
    """Raises above RESIDUAL_TOL; returns the worst ratio."""
    ratio = residual_ratio(bands, values, vectors)
    if not ratio <= RESIDUAL_TOL:
        raise CheckError(f"eigenpair residual {ratio:.3e} |L|_F > {RESIDUAL_TOL:.0e} |L|_F")
    return ratio


def check_orthonormal(vectors) -> None:
    v = np.column_stack(vectors)
    defect = float(np.abs(v.conj().T @ v - np.eye(v.shape[1])).max())
    if defect > ORTHONORMAL_TOL:
        raise CheckError(f"Hermitian eigenbasis orthonormality defect {defect:.3e}")


def fidelity(u: np.ndarray, v: np.ndarray) -> float:
    n = max(len(u), len(v))
    a = np.zeros(n, dtype=complex)
    b = np.zeros(n, dtype=complex)
    a[: len(u)] = u
    b[: len(v)] = v
    return float(abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real))


def eigenvector(bands, lam: complex, head: int = 100) -> np.ndarray:
    """Eigenvector of L for eigenvalue lam, exact on the photons it returns.

    With nu = 0 L is upper bidiagonal and the eigenvector for lam = diag[k] lives
    on |0>..|k>; it is filled downward from v_k = 1.  Otherwise rows 0..n-1 of
    (L - lam) v = 0 read (L_n - lam) v[:n] = -sup[n-1] v[n] e_{n-1} for the
    leading n x n block L_n, n = min(m, head), so one banded solve gives
    v[0..n] with v[n] = 1; the limit states carry no mass beyond it.
    """
    sub, diag, sup = bands
    if not np.any(sub):
        k = int(np.argmin(np.abs(diag - lam)))
        v = np.zeros(k + 1, dtype=complex)
        v[k] = 1.0
        for n in range(k - 1, -1, -1):
            v[n] = -sup[n] * v[n + 1] / (diag[n] - lam)
            if abs(v[n]) > 1e150:
                v /= abs(v[n])
        return v / np.linalg.norm(v)
    n = min(len(diag) - 1, head)
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = sup[: n - 1]
    ab[1] = diag[:n] - lam
    ab[2, :-1] = sub[: n - 1]
    rhs = np.zeros(n, dtype=complex)
    rhs[-1] = -sup[n - 1]
    v = np.append(_scipy_linalg().solve_banded((1, 1), ab, rhs), 1.0)
    return v / np.linalg.norm(v)


def nearest_eigenvalue(mu: complex, nu: complex, eta: float, m: int, target: complex) -> complex:
    spec = invariant_spectrum(mu, nu, eta, m)
    return complex(spec[int(np.argmin(np.abs(spec - target)))])


def two_photon_state(b: complex, c: complex, tail: float = 1e-14) -> np.ndarray:
    """Normalized exp(c a^dag^2 + b a^dag)|0>, i.e. the eigenstate of mu a + nu a^dag
    with eigenvalue mu b when c = -nu/(2 mu); c = 0 gives the coherent state |b>.

    <n| = sqrt(n!) sum_j c^j b^(n-2j) / (j! (n-2j)!), summed term by term and cut
    once the last ten amplitudes carry less than tail of the mass.
    """
    amps = []
    for n in range(160):
        acc = 0j
        for j in range(n // 2 + 1):
            acc += c ** j * b ** (n - 2 * j) / (math.factorial(j) * math.factorial(n - 2 * j))
        amps.append(acc * math.sqrt(math.factorial(n)))
        if n >= 20:
            v = np.array(amps)
            mass = np.abs(v) ** 2
            if mass[-10:].sum() <= tail * mass.sum():
                return v / np.linalg.norm(v)
    raise ValueError(f"two-photon state b={b}, c={c} needs more than 160 photons")


def limit_fidelity(mu, nu, eta, m, lam, reference) -> float:
    """Fidelity of L's lam-eigenvector with a reference state."""
    return fidelity(eigenvector(hp_bands(mu, nu, eta, m), lam), reference)


def check_fidelity(reported: float, expected: float) -> None:
    if not abs(reported - expected) <= FIDELITY_TOL:
        raise CheckError(f"limit fidelity {reported!r}, reference gives {expected!r}")


def check_rising(label: str, values) -> None:
    """Fidelities must not fall along the schedule (m or eta ascending)."""
    for a, b in zip(values, values[1:]):
        if b < a - MONOTONE_SLACK:
            raise CheckError(f"{label}: fidelity falls from {a!r} to {b!r}")


def generators(m: int):
    jp = np.diag(hp_bands(1.0, 1.0, 0.0, m)[2], 1)
    return jp, jp.conj().T


def check_disentangled(d: np.ndarray, xi: complex, m: int) -> None:
    jp, jm = generators(m)
    ref = _scipy_linalg().expm(xi * jp - np.conj(xi) * jm)
    err = float(np.linalg.norm(np.asarray(d) - ref))
    if not err <= DISENTANGLE_TOL:
        raise CheckError(f"disentangled product off expm by {err:.3e} > {DISENTANGLE_TOL:.0e}")


def check_forms_agree(u: np.ndarray, v: np.ndarray) -> None:
    infid = 1.0 - fidelity(u, v)
    if not infid <= FORMS_INFIDELITY_TOL:
        raise CheckError(f"sum and exponential forms differ: infidelity {infid:.3e}")


def binomial_pmf(eta: float, m: int) -> np.ndarray:
    """C(m, n) eta^n (1-eta)^(m-n) in exact rationals of the float eta."""
    e = Fraction(eta)
    return np.array([float(math.comb(m, n) * e ** n * (1 - e) ** (m - n)) for n in range(m + 1)])


def check_pmf(amplitudes: np.ndarray, eta: float, m: int, tol: float) -> None:
    err = float(np.abs(np.abs(np.asarray(amplitudes)) ** 2 - binomial_pmf(eta, m)).max())
    if not err <= tol:
        raise CheckError(f"binomial pmf off by {err:.3e} > {tol:.0e} at eta={eta}, m={m}")
