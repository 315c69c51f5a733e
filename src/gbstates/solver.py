"""Closed-form solution of the generalized binomial-state eigenvalue problem.

The operator L = sqrt(1-eta) (mu J+ + nu J-) - sqrt(eta) J0 on the
(m+1)-dimensional truncated Fock space is the Schwinger image (J+ = a^dag b,
J- = b^dag a, J0 = (a^dag a - b^dag b)/2) of the 2x2 matrix
    M = [[-sqrt(eta)/2, sqrt(1-eta) mu], [sqrt(1-eta) nu, sqrt(eta)/2]].
A single SU(2) rotation D(zeta), the spin-m/2 lift of a Schur basis U of M,
removes the J- term: the constraint root delta is an eigenvector ratio of M,
and the coefficient triple is read off U^H M U = [[-A0/2, A+], [0, A0/2]].
The rotated operator A+ J+ - A0 J0 is solved exactly by a terminating
two-term recursion: the spectrum is A0 (2k - m)/2 for k = 0..m, with
A0 = +-sqrt(eta + 4(1-eta) mu nu), and the eigenstates are rotated images of
states supported on |0>..|k>.

Every entry point derives the constraint root, the rotation, the coefficient
triple and the branch of a point once, as one rotated frame, and builds the
eigenstates it returns from that frame and one D(zeta).

Branches:
  * generic          -- A+ away from zero; full closed-form eigenbasis
                        D(zeta) core_k.
  * degenerate A+ =0 -- M normal: happens when mu = nu* (L Hermitian);
                        taken only while the dropped A+ J+ term stays far
                        inside the residual bound.  The eigenstates
                        collapse to displaced number states D(zeta)|k>.
  * defective A0 = 0 -- M nilpotent, and so the rotated operator; the m+1
                        eigenvalues all vanish and only a single genuine
                        eigenvector D(zeta)|0> exists.  Reported, never
                        patched over.
"""

import cmath
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .displacement import DisplacementParams, delta_to_zeta, displacement
from .fock import hp_generators, normalize_state

ROOT_POLICIES = ("principal", "secondary")

# fraction of |L|_F the dropped A+ J+ term may leave in a Hermitian-branch
# residual: a hundredth of the 1e-10 |L|_F residual contract
DEGENERATE_APLUS_TOL = 1e-12
DEFECTIVE_AZERO_TOL = 1e-12

_EPS = float(np.finfo(float).eps)


class SolutionKind(Enum):
    GENERIC = "generic"
    DEGENERATE_A_PLUS_ZERO = "degenerate-a-plus-zero"
    DEFECTIVE_A_ZERO_ZERO = "defective-a-zero-zero"


@dataclass(frozen=True)
class GBSParams:
    """Operator parameters {mu, nu, eta, m}: finite mu != 0 and nu, 0 < eta < 1,
    integer m >= 0."""

    mu: complex
    nu: complex
    eta: float
    m: int

    def __post_init__(self):
        for name in ("mu", "nu"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mu == 0:
            raise ValueError("mu must be nonzero")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie strictly inside (0, 1), got {self.eta}")
        if not isinstance(self.m, numbers.Integral):
            raise ValueError(f"photon cap must be an integer, got {self.m!r}")
        if self.m < 0:
            raise ValueError(f"photon cap must be >= 0, got {self.m}")

    @property
    def scale(self) -> float:
        """Magnitude reference for the defective-branch threshold."""
        return abs(self.mu) + abs(self.nu) + 1.0


@dataclass(frozen=True)
class CoefficientTriple:
    """Coefficients (A+, A-, A0) of J+, J-, J0 after the rotation.

    When the rotation comes from a constraint root, A- vanishes up to
    rounding; the solver relies on that.
    """

    a_plus: complex
    a_minus: complex
    a_zero: complex


@dataclass
class GBSSolution:
    params: GBSParams
    delta_root: complex
    zeta: DisplacementParams
    triple: CoefficientTriple
    eigenvalues: np.ndarray
    eigenstates: list[np.ndarray]
    kind: SolutionKind


def build_operator(p: GBSParams) -> np.ndarray:
    """Dense (m+1)x(m+1) matrix sqrt(1-eta)(mu J+ + nu J-) - sqrt(eta) J0."""
    j0, jp, jm = hp_generators(p.m)
    return math.sqrt(1.0 - p.eta) * (p.mu * jp + p.nu * jm) - math.sqrt(p.eta) * j0


def operator_norm(p: GBSParams) -> float:
    """|L|_F in closed form, without building L.

    J+, J- and J0 fill disjoint entries, |J+-|_F^2 = m(m+1)(m+2)/6 and
    |J0|_F^2 = m(m+1)(m+2)/12, so
    |L|_F^2 = m(m+1)(m+2)/6 ((1-eta)(|mu|^2 + |nu|^2) + eta/2).
    """
    m = p.m
    sq_mod = (1.0 - p.eta) * (abs(p.mu) ** 2 + abs(p.nu) ** 2) + p.eta / 2
    return math.sqrt(m * (m + 1) * (m + 2) / 6 * sq_mod)


def constraint_roots(p: GBSParams) -> tuple[complex, complex]:
    """Both eigenvector ratios delta = -g_b/g_a of M, principal first.

    The constraint mu sqrt(1-eta) D^2 + sqrt(eta) D - sqrt(1-eta) nu = 0 that
    kills the J- coefficient is M's eigenvector equation in that ratio.  With
    A0 = sqrt(eta + 4(1-eta) mu nu), Re A0 > 0 (Im A0 >= 0 on the cut),
        principal = 2 sqrt(1-eta) nu / (sqrt(eta) + A0)  (eigenvalue -A0/2),
        secondary = -(sqrt(eta) + A0) / (2 sqrt(1-eta) mu),
    free of cancellation; |principal| <= |secondary| since
    |sqrt(eta) - A0| <= |sqrt(eta) + A0|, and principal = 0 when nu = 0.
    """
    s, se = math.sqrt(1.0 - p.eta), math.sqrt(p.eta)
    s_mu, s_nu = s * p.mu, s * p.nu
    disc = se * se + 4.0 * s_mu * s_nu  # -4 det M, from M's entries
    # a discriminant below the rounding floor of its two summands is a true
    # double root (the defective point); keep it exactly zero rather than
    # letting sqrt(rounding noise) fake a ~1e-8 splitting
    if abs(disc) <= 16.0 * _EPS * (se * se + 4.0 * abs(s_mu) * abs(s_nu)):
        disc = 0.0
    # + 0j clears a signed-zero imaginary part, so the cut takes Im A0 >= 0
    denom = se + cmath.sqrt(disc + 0j)
    return 2.0 * s_nu / denom, -denom / (2.0 * s_mu)


def select_root(p: GBSParams, root_policy: str = "principal") -> complex:
    """Principal = smaller |delta|, the first of constraint_roots; secondary = other.

    The smaller rotation keeps D(zeta) well conditioned and reduces to the
    no-rotation case delta = 0 when nu = 0.
    """
    if root_policy not in ROOT_POLICIES:
        raise ValueError(f"root policy must be one of {ROOT_POLICIES}, got {root_policy!r}")
    return constraint_roots(p)[ROOT_POLICIES.index(root_policy)]


def coefficient_triple(p: GBSParams, delta: complex) -> CoefficientTriple:
    """Rotated-frame coefficients: the entries of T = U^H M U.

    U = w^-1/2 [[1, delta*], [-delta, 1]], w = 1 + |delta|^2, is the 2x2
    unitary that D(zeta) lifts (delta = e^{-i theta} tan r), so
    D^-1 L D = A+ J+ + A- J- - A0 J0 with A+ = T_12, A- = T_21 and
    A0 = T_22 - T_11.  At a constraint root U is a Schur basis of M: A-
    vanishes and A0 = -2 lambda, lambda the eigenvalue of U's first column
    (A0 = sqrt(eta + 4(1-eta) mu nu) at the principal root).
    """
    delta = complex(delta)
    dc = delta.conjugate()
    s, se = math.sqrt(1.0 - p.eta), math.sqrt(p.eta)
    d2 = delta.real**2 + delta.imag**2
    w = 1.0 + d2
    return CoefficientTriple(
        a_plus=(s * (p.mu - p.nu * dc * dc) - se * dc) / w,
        a_minus=(s * (p.nu - p.mu * delta * delta) - se * delta) / w,
        a_zero=(se * (1.0 - d2) + 2.0 * s * (p.mu * delta + p.nu * dc)) / w,
    )


def branch_kind(p: GBSParams, triple: CoefficientTriple) -> SolutionKind:
    # dropping A+ J+ leaves D|k> a residual |A+| sqrt(k(m-k+1)) <= |A+| (m+1)/2
    if abs(triple.a_plus) * (p.m + 1) / 2 <= DEGENERATE_APLUS_TOL * operator_norm(p):
        return SolutionKind.DEGENERATE_A_PLUS_ZERO
    if abs(triple.a_zero) <= DEFECTIVE_AZERO_TOL * p.scale:
        return SolutionKind.DEFECTIVE_A_ZERO_ZERO
    return SolutionKind.GENERIC


class _Frame(NamedTuple):
    """The rotated frame of a point: constraint root, rotation, triple, branch."""

    delta: complex
    zeta: DisplacementParams
    triple: CoefficientTriple
    kind: SolutionKind


def _frame(p: GBSParams, root_policy: str) -> _Frame:
    delta = select_root(p, root_policy)
    triple = coefficient_triple(p, delta)
    return _Frame(delta, delta_to_zeta(delta, p.m), triple, branch_kind(p, triple))


def _check_index(p: GBSParams, k: int) -> None:
    if not 0 <= k <= p.m:
        raise ValueError(f"eigenstate index {k} outside 0..{p.m}")


def _generic_frame(p: GBSParams, root_policy: str, k: int | None = None) -> _Frame:
    """The frame of a point whose closed forms exist; k, if given, is checked."""
    if k is not None:
        _check_index(p, k)
    frame = _frame(p, root_policy)
    if frame.kind is not SolutionKind.GENERIC:
        raise ValueError(f"the closed forms need the generic branch, got {frame.kind.value}")
    return frame


def _ladder(a_zero: complex, m: int) -> np.ndarray:
    k = np.arange(m + 1)
    return a_zero * (2 * k - m) / 2.0


def spectrum(p: GBSParams, root_policy: str = "principal") -> np.ndarray:
    """All m+1 eigenvalues A0 (2k - m)/2, k ascending 0..m."""
    return _ladder(_frame(p, root_policy).triple.a_zero, p.m)


def _cores(triple: CoefficientTriple, ks, m: int) -> np.ndarray:
    """Rotated-frame eigenstates for the indices ks, one row each, unnormalized.

    Each step of the recursion c_{n+1} sqrt((n+1)(m-n)) A+ = c_n A0 (k - n)
    carries the phase of x = A0/A+, so for n <= k, in closed form,
        core_k(n) = e^{i n arg x} |x|^n C(k, n) / sqrt(C(m, n)),
    and core_k vanishes past n = k.  The log magnitudes are one cumsum over
    n (-inf past k), max-shifted before exp, so each row's largest entry has
    modulus exactly 1 and nothing overflows; the caller normalizes.
    """
    x = triple.a_zero / triple.a_plus
    n = np.arange(m + 1)
    # log j at j = 0..m; the -inf at j = 0 ends each core after n = k
    log_int = np.log(n, out=np.full(m + 1, -np.inf), where=n > 0)
    steps = math.log(abs(x)) + log_int[np.maximum(np.asarray(ks)[:, None] - n[:-1], 0)]
    steps -= 0.5 * (log_int[1:] + log_int[:0:-1])  # log sqrt((n+1)(m-n))
    log_rho = np.zeros((steps.shape[0], m + 1))
    np.cumsum(steps, axis=1, out=log_rho[:, 1:])
    rho = np.exp(log_rho - log_rho.max(axis=1, keepdims=True))
    phase = np.exp(1j * ((n * cmath.phase(x)) % (2 * math.pi)))
    # elementwise per row: the same k gives the same bits alone or in a batch
    return rho * phase


def _eigenstates(p: GBSParams, frame: _Frame, d: np.ndarray, ks) -> list[np.ndarray]:
    """The eigenstates ks on the frame's branch, given d = D(zeta).

    On the generic branch state k is D core_k, read only over the core's
    support: normalize_state(d[:, :k+1] @ core_k[:k+1]), one gemv on k+1
    columns and the state's single normalization.
    """
    if frame.kind is SolutionKind.GENERIC:
        cores = _cores(frame.triple, ks, p.m)
        return [normalize_state(d[:, : k + 1] @ core[: k + 1]) for k, core in zip(ks, cores)]
    if frame.kind is SolutionKind.DEFECTIVE_A_ZERO_ZERO and max(ks) > 0:
        raise ValueError(f"the {frame.kind.value} branch carries only the eigenstate k = 0; "
                         f"k = {max(ks)} unavailable")
    # A+ = 0 leaves the diagonal -A0 J0, A0 = 0 the nilpotent A+ J+ (a single
    # Jordan chain headed by |0>); either way the eigenvector is |k> and the
    # eigenstate is column k of D
    return [normalize_state(d[:, k]) for k in ks]


def eigenstate(p: GBSParams, k: int, root_policy: str = "principal") -> np.ndarray:
    """solve(p, root_policy).eigenstates[k], without building the other states.

    Raises ValueError for a k the branch does not carry: outside 0..m, or
    k > 0 on the defective branch.
    """
    _check_index(p, k)
    frame = _frame(p, root_policy)
    return _eigenstates(p, frame, displacement(frame.zeta), [k])[0]


def undisplaced_eigenstate(p: GBSParams, k: int, root_policy: str = "principal") -> np.ndarray:
    """Eigenstate of the rotated operator A+ J+ - A0 J0, before displacing back."""
    return normalize_state(_cores(_generic_frame(p, root_policy, k).triple, [k], p.m)[0])


def eigenstate_sum(p: GBSParams, k: int, root_policy: str = "principal") -> np.ndarray:
    """Eigenstate via the finite-sum form, displaced back to the original frame."""
    frame = _generic_frame(p, root_policy, k)
    return _eigenstates(p, frame, displacement(frame.zeta), [k])[0]


def _exponential_form_core(triple: CoefficientTriple, k: int, m: int) -> np.ndarray:
    """Rotated-frame eigenstate as exp of a weighted lowering operator on |0>.

    The exponent is (A0/A+) sqrt((k-N+1)/(m-N+1)) acting after a^dag sqrt(k-N);
    on the n <= k sector its only matrix elements are
        (n+1, n): (A0/A+) (k - n) sqrt((n+1)/(m-n)),
    and it annihilates everything above, so the series applied to the vacuum
    terminates after k+1 terms.
    """
    n = np.arange(k)
    sub = triple.a_zero / triple.a_plus * (k - n) * np.sqrt((n + 1) / (m - n))
    v = np.zeros(m + 1, dtype=complex)
    term = np.zeros(m + 1, dtype=complex)
    v[0] = 1.0
    term[0] = 1.0
    for j in range(1, k + 1):
        # the exponent's sub-diagonal moves |n> to |n+1>
        term[1 : k + 1] = term[:k] * sub / j
        term[0] = 0.0
        v = v + term
        big = np.abs(term).max()
        if big > 1e200:
            v /= big
            term /= big
    return normalize_state(v)


def eigenstate_exponential(p: GBSParams, k: int, root_policy: str = "principal") -> np.ndarray:
    """Eigenstate via the exponential form; equal to eigenstate_sum."""
    frame = _generic_frame(p, root_policy, k)
    core = _exponential_form_core(frame.triple, k, p.m)
    return normalize_state(displacement(frame.zeta) @ core)


def solve(p: GBSParams, root_policy: str = "principal") -> GBSSolution:
    """Full closed-form solution: root, rotation, coefficients, spectrum, states."""
    frame = _frame(p, root_policy)
    d = displacement(frame.zeta)
    count = 1 if frame.kind is SolutionKind.DEFECTIVE_A_ZERO_ZERO else p.m + 1
    return GBSSolution(
        params=p,
        delta_root=frame.delta,
        zeta=frame.zeta,
        triple=frame.triple,
        eigenvalues=_ladder(frame.triple.a_zero, p.m),
        eigenstates=_eigenstates(p, frame, d, range(count)),
        kind=frame.kind,
    )


def binomial_phase_parameters(
    p: GBSParams, root_policy: str = "principal"
) -> tuple[float, float, float]:
    """(eta', theta0, theta+) of the top rotated-frame eigenstate.

    The k = m eigenstate, before displacing back, is a binomial state with
    probability eta' = |A0|^2 / (|A0|^2 + |A+|^2) and phases e^{i n (theta0
    - theta+)}, where theta0 and theta+ are the arguments of A0 and A+.
    """
    triple = _generic_frame(p, root_policy).triple
    a0 = abs(triple.a_zero)
    ap = abs(triple.a_plus)
    eta_prime = a0 * a0 / (a0 * a0 + ap * ap)
    theta0 = cmath.phase(triple.a_zero)
    theta_plus = cmath.phase(triple.a_plus)
    return eta_prime, theta0, theta_plus
