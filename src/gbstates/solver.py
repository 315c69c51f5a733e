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

A point has one rotated frame, built on the principal constraint root:
every entry point derives the root, the rotation, the coefficient triple and
the branch once, from it.  The constraint is a quadratic in delta, but its
secondary root gives the same states: that frame has A0 -> -A0, so it lists
the ladder reversed, and its state k is the principal state m - k.  On the
generic branch solve and eigenstate build each state from L's three bands at
its exact eigenvalue, by a twisted factorization in O(m) per state and
without D(zeta); eigenstate_sum builds the same state as D(zeta) core_k, the
paper's finite-sum form, so the two check each other.  Where the root is
delta = 0 (nu = 0, the paper's central family), D(zeta) = I and every entry
point reads the state off its closed-form core, which solve builds many
rows at a time; the twisted factorization, which still solves that case,
serves the tests as its reference.  The factorization
sweeps only downward: the spectrum is symmetric under k -> m - k, and with
(Q x)_n = (nu/mu)^n (-1)^n x_{m-n}, Q L Q^-1 = -L, so the upward pivots of
state k are the downward pivots of state m - k, reversed and negated.  In
floating point this holds bit for bit, except for the tiny floor that
keeps a pivot off zero, which enters with the other sign.  The other
branches read columns of D(zeta).

eigenstate_sum and eigenstate_exponential, which are asked for one k at a
time, share one memo of the last point either was called at (_point): its
frame, its D(zeta), one (m+1)^2 complex matrix, 16 MB at m = 1000, and its
O(m) core tables, so that a call forms only the k + 1 entries of core k.
It stays alive until a different point is asked for.  At delta = 0 it
holds no D.  solve, eigenstate and displacement() never fill it, so a
large solve leaves nothing behind.

Branches:
  * generic          -- A+ away from zero; full closed-form eigenbasis,
                        equal to D(zeta) core_k.
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
import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .displacement import DisplacementParams, delta_to_zeta, displacement
from .fock import AMPLITUDE_CAP, check_photon_cap, hop_squares, normalize_rows, normalize_state

# fraction of |L|_F the dropped A+ J+ term may leave in a Hermitian-branch
# residual: a hundredth of the 1e-10 |L|_F residual contract
DEGENERATE_APLUS_TOL = 1e-12
DEFECTIVE_AZERO_TOL = 1e-12

_EPS = float(np.finfo(float).eps)
# stands in for an exact zero pivot of the twisted factorization; its square
# is still a normal double
_PIVOT_FLOOR = 2.0**-300
# a batch of eigenstates is built and normalized in chunks of at most this
# many (n, k) entries, which bounds the memory of a solve at large m
_SWEEP_ENTRIES = 2**16


class SolutionKind(Enum):
    GENERIC = "generic"
    DEGENERATE_A_PLUS_ZERO = "degenerate-a-plus-zero"
    DEFECTIVE_A_ZERO_ZERO = "defective-a-zero-zero"


@dataclass(frozen=True)
class GBSParams:
    """Operator parameters {mu, nu, eta, m}: 1e-50 <= |mu| <= 1e50, |nu| <= 1e50,
    0 < eta < 1, integer 0 <= m < fock.AMPLITUDE_CAP.

    The magnitude bounds keep the frame inside the double range at every eta
    and either root: |delta| <= 1/(s |mu|) + sqrt(|nu/mu|) < 1e58, with
    s = sqrt(1-eta) >= 2^-26.5, so |delta|^2 and nu delta^2 stay below 1e170.
    """

    mu: complex
    nu: complex
    eta: float
    m: int

    def __post_init__(self):
        for name in ("mu", "nu"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        mod_mu, mod_nu = (math.hypot(z.real, z.imag) for z in (complex(self.mu), complex(self.nu)))
        if not 1e-50 <= mod_mu <= 1e50:
            raise ValueError(f"|mu| must lie in [1e-50, 1e50], got {mod_mu:g}")
        if mod_nu > 1e50:
            raise ValueError(f"|nu| must be at most 1e50, got {mod_nu:g}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie strictly inside (0, 1), got {self.eta}")
        check_photon_cap(self.m)


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
    eigenstates: np.ndarray  # (count, m+1), one state per row
    kind: SolutionKind


def bands(p: GBSParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sub, diag, sup) of L in O(m), the one definition of its entries.

    J+ moves |n+1> to |n> with the hop sqrt((n+1)(m-n)) of fock.hop_squares;
    J- is its transpose and J0 = m/2 - N.  Each entry rounds as in the dense
    sum of the three generators.
    """
    n = np.arange(p.m + 1)
    s = math.sqrt(1.0 - p.eta)
    hop = np.sqrt(hop_squares(p.m))
    diag = (math.sqrt(p.eta) * (n - p.m / 2)).astype(complex)
    return s * (complex(p.nu) * hop), diag, s * (complex(p.mu) * hop)


def build_operator(p: GBSParams) -> np.ndarray:
    """Dense (m+1)x(m+1) L, bands(p) laid out.

    The package never builds L: this and oracle.dense_spectrum serve only the
    benchmark's dense replay, which times the two together.
    """
    sub, diag, sup = bands(p)
    n = p.m + 1
    op = np.zeros((n, n), dtype=complex)
    op.flat[:: n + 1], op.flat[1 :: n + 1], op.flat[n :: n + 1] = diag, sup, sub
    return op


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


def select_root(p: GBSParams) -> complex:
    """The principal root, constraint_roots(p)[0]: the root of every frame.

    The smaller rotation keeps D(zeta) well conditioned and reduces to the
    no-rotation case delta = 0 when nu = 0.  The secondary root would only
    relabel the states: its state k is the principal state m - k.
    """
    return constraint_roots(p)[0]


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
    # A0^2 = eta + 4(1-eta) mu nu: |A0| against the modulus sum of its two
    # terms, so the test holds at every scale of mu, nu and eta
    a_zero_terms = math.sqrt(p.eta + 4.0 * (1.0 - p.eta) * abs(p.mu) * abs(p.nu))
    if abs(triple.a_zero) <= DEFECTIVE_AZERO_TOL * a_zero_terms:
        return SolutionKind.DEFECTIVE_A_ZERO_ZERO
    return SolutionKind.GENERIC


class _Frame(NamedTuple):
    """The rotated frame of a point: constraint root, rotation, triple, branch."""

    delta: complex
    zeta: DisplacementParams
    triple: CoefficientTriple
    kind: SolutionKind


def _frame(p: GBSParams) -> _Frame:
    delta = select_root(p)
    triple = coefficient_triple(p, delta)
    return _Frame(delta, delta_to_zeta(delta, p.m), triple, branch_kind(p, triple))


def _check_index(p: GBSParams, k: int, kind: SolutionKind | None = None) -> None:
    """Raise ValueError for a k that is not an integer in 0..m, or, given the
    point's branch, that the branch does not carry: k > 0 when defective."""
    if not isinstance(k, numbers.Integral):
        raise ValueError(f"eigenstate index must be an integer, got {k!r}")
    if not 0 <= k <= p.m:
        raise ValueError(f"eigenstate index {k} outside 0..{p.m}")
    if kind is SolutionKind.DEFECTIVE_A_ZERO_ZERO and k > 0:
        raise ValueError(f"the {kind.value} branch carries only the eigenstate k = 0; "
                         f"k = {k} unavailable")


def _generic_frame(p: GBSParams) -> _Frame:
    """The frame of a point whose closed forms exist."""
    frame = _frame(p)
    if frame.kind is not SolutionKind.GENERIC:
        raise ValueError(f"the closed forms need the generic branch, got {frame.kind.value}")
    return frame


def _ladder(a_zero: complex, m: int) -> np.ndarray:
    k = np.arange(m + 1)
    return a_zero * (2 * k - m) / 2.0


def spectrum(p: GBSParams) -> np.ndarray:
    """All m+1 eigenvalues A0 (2k - m)/2, k ascending 0..m."""
    return _ladder(_frame(p).triple.a_zero, p.m)


class _CoreTables(NamedTuple):
    """The parts every core of a frame shares, O(m) each (see _cores)."""

    # log (m - i) for i < m, -inf from i = m on; read backwards from i = m it
    # is log j at j = 0..m, whose -inf at j = 0 ends a core after n = k
    falling: np.ndarray
    half_steps: np.ndarray  # log sqrt((n+1)(m-n)), n = 0..m-1
    log_x: float  # log |A0/A+|
    phase: np.ndarray  # e^{i ((n arg x) mod 2 pi)}, n = 0..m


def _core_tables(triple: CoefficientTriple, m: int) -> _CoreTables:
    x = triple.a_zero / triple.a_plus
    n = np.arange(m + 1)
    falling = np.full(2 * m + 1, -np.inf)
    np.log(n[:0:-1], out=falling[:m])
    log_int = falling[m::-1]
    half_steps = 0.5 * (log_int[1:] + log_int[m:0:-1])
    phase = np.exp(1j * ((n * cmath.phase(x)) % (2 * math.pi)))
    return _CoreTables(falling, half_steps, math.log(abs(x)), phase)


def _cores(triple: CoefficientTriple, ks, m: int) -> np.ndarray:
    """Rotated-frame eigenstates, unnormalized: core k for one index k, or
    one row per index for an ascending array ks.

    Each step of the recursion c_{n+1} sqrt((n+1)(m-n)) A+ = c_n A0 (k - n)
    carries the phase of x = A0/A+, so for n <= k, in closed form,
        core_k(n) = e^{i n arg x} |x|^n C(k, n) / sqrt(C(m, n)),
    and core_k vanishes past n = k.  The log magnitudes are one cumsum along
    n per row (-inf past k), max-shifted before exp, so the largest entry of
    a row has modulus exactly 1 and nothing overflows; the caller normalizes.
    Every step is elementwise or runs along one row, so a core has the same
    bits alone as in a batch, and _core, which runs the same steps on the
    support alone, gives its first k + 1 entries.
    """
    tables = _core_tables(triple, m)
    ks = np.asarray(ks)
    top = int(ks.flat[-1])  # every core vanishes past n = top: only n <= top is summed
    # core k's log (k - n) at n = 0..top-1 is the window of falling from m - k
    windows = np.ndarray((m + 1, top), buffer=tables.falling, strides=2 * tables.falling.strides)
    steps = windows[m - ks] + tables.log_x
    steps -= tables.half_steps[:top]
    log_rho = np.zeros(ks.shape + (m + 1,))
    np.cumsum(steps, axis=-1, out=log_rho[..., 1 : top + 1])
    log_rho[..., top + 1 :] = -np.inf
    log_rho -= log_rho.max(axis=-1, keepdims=True)
    return np.exp(log_rho, out=log_rho) * tables.phase


def _core(tables: _CoreTables, k: int) -> np.ndarray:
    """_cores(triple, k, m)[: k + 1], bit for bit, from the frame's tables:
    the same steps in the same order, over the k + 1 entries of the support."""
    m = len(tables.phase) - 1
    steps = tables.falling[m - k : m] + tables.log_x
    steps -= tables.half_steps[:k]
    log_rho = np.zeros(k + 1)
    np.cumsum(steps, out=log_rho[1:])
    log_rho -= log_rho.max()
    return np.exp(log_rho, out=log_rho) * tables.phase[: k + 1]


def _chunks(count: int, width: int) -> list[slice]:
    """range(count) split evenly into the fewest slices whose items, of width
    entries each, hold at most about _SWEEP_ENTRIES entries a slice."""
    pieces = math.ceil(count * width / _SWEEP_ENTRIES)
    edges = [count * i // pieces for i in range(pieces + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _with_mirrors(low: np.ndarray, m: int) -> np.ndarray:
    """Ascending k <= m/2, then their mirrors m - k, ascending: the mirror of
    entry j is entry -1 - j, and k = m/2, if present, is its own."""
    return np.concatenate([low, (m - low[::-1])[int(2 * low[-1] == m) :]])


def _sweep_floats(xs, ys, c) -> None:
    """_sweep for one state, in Python floats, in place on the lists of its
    diagonal's real and imaginary parts: the same operations in the same
    order as _sweep's numpy rows, so the same bits."""
    x, y = xs[0] + _PIVOT_FLOOR, ys[0] + _PIVOT_FLOOR
    xs[0], ys[0] = x, y
    for j, cj in enumerate(c):
        den = x * x + y * y
        x = xs[j + 1] - x * (cj / den) + _PIVOT_FLOOR
        y = ys[j + 1] - y * (-cj / den) + _PIVOT_FLOOR
        xs[j + 1], ys[j + 1] = x, y


def _sweep(d, c) -> None:
    """The downward pivots of the rotated, scaled L - lambda, in place, for a batch of k.

    On entry d, (m+1, 2, K), holds row j of L - lambda_k at [j, :, k], the
    real and imaginary part on axis 1, and c, (m,), the real products
    u_n l_n.  On exit it holds the pivots d_0 = e_0,
    d_{j+1} = e_{j+1} - c_j / d_j, with c_j / d_j = q (x - i y),
    q = c_j / |d_j|^2.  _PIVOT_FLOOR, added to both parts, changes no part
    above 1e-74 and turns an exact zero pivot, which would make the next
    quotient 0/0, into a tiny one.

    There is no upward sweep: Q L Q^-1 = -L (see _twisted_states) makes the
    upward pivots of k the downward ones of m - k, reversed and negated.
    Only real + - * /, each correctly rounded and elementwise over k:
    _sweep_floats repeats them in Python floats, and a state gets the same
    bits alone as in a batch.
    """
    K = d.shape[2]
    cq = np.empty((len(c), 2, 1))  # c_j and -c_j, per part
    cq[:, 0, 0] = c
    np.negative(c, out=cq[:, 1, 0])
    sq, quot, den = np.empty((2, K)), np.empty((2, K)), np.empty(K)
    d[0] += _PIVOT_FLOOR
    for d0, d1, c0 in zip(d, d[1:], cq):
        np.multiply(d0, d0, sq)
        np.add(sq[0], sq[1], den)
        np.divide(c0, den, quot)
        np.multiply(d0, quot, sq)
        np.subtract(d1, sq, d1)
        np.add(d1, _PIVOT_FLOOR, d1)


def _twisted_states(p: GBSParams, a_zero: complex, ks) -> np.ndarray:
    """Eigenstates ks, distinct and ascending, of L at lambda_k = A0 (2k - m)/2,
    from L's three bands.

    Fernando's twisted factorization (Parlett & Dhillon, LAA 267, 1997), in
    O(m) per state and without D(zeta).  With e_n the diagonal of L - lambda
    and u_n, l_n its super- and subdiagonal, the pivots run down,
    D+_{n+1} = e_{n+1} - u_n l_n / D+_n, and up, D-_n = e_n - u_n l_n / D-_{n+1};
    the twist r minimizes |D+_r + D-_r - e_r|, and from z_r = 1 the state is
    z_n = -u_n z_{n+1} / D+_n below r and z_n = -l_{n-1} z_{n-1} / D-_n above.

    Only the downward sweep runs.  With (Q x)_n = (nu/mu)^n (-1)^n x_{m-n},
    Q L Q^-1 = -L: the pivots see only the products u_n l_n, which are the
    same read in reverse, the diagonal is antisymmetric, e_{m-n} = -e_n, and
    lambda_{m-k} = -lambda_k, all exactly in floating point.  So D-_n of k is
    -D+_{m-n} of m - k bit for bit, but for the sign of the _PIVOT_FLOOR
    each sweep adds, which touches only parts below about 2^-247.  Each
    chunk sweeps its states together with their mirrors m - k, laid side
    by side on one axis, and every later step runs once over both.  The
    mirror's |pivots| and unit phases serve k reversed, the phases negated,
    so k's upward running product of them is (-1)^(m-n) times the mirror's
    downward one; the twist is found per state.

    The pivots see only u_n l_n = (1-eta) mu nu (n+1)(m-n), the squared hop
    of fock.hop_squares, whose phase phi is the same for every n.  Rotating
    them by e^{-i phi/2} makes the products real, and dividing by sigma, the
    power of two at |A0|, keeps them near 1.  Then -u_n / D+_n = v |u_n| /
    |D+_n| times the conjugate unit phase of D+_n, with
    v = -mu e^{-i phi/2} / |mu|, and above r the same holds with v* and
    |l_{n-1}|.  So the state is v^-n times a modulus and a phase
    product.  The modulus is summed, per state, as log |band| - log |pivot|
    outward from r, which sits at the state's large entries, and max-shifted
    before exp, so nothing overflows at any |nu/mu|; the phase is the
    running product of the pivots' unit phases, the downward one below r and
    the upward one above, joined at r.  At nu = 0 L is upper bidiagonal:
    log |l| = -inf, and the part above r vanishes.  solve and eigenstate
    never come here at nu = 0, where delta = 0 makes each state its
    closed-form core (_cores); the tests keep this route as that one's
    reference.

    A single pair k, m - k sweeps in Python floats, a batch in numpy rows, in
    chunks of at most _SWEEP_ENTRIES (n, k) swept entries; all else is numpy
    and elementwise over k, so a state gets the same bits alone as in a
    batch.  A mirror that is not among ks is swept for its pivots only, and
    never assembled.
    """
    m = p.m
    s, se = math.sqrt(1.0 - p.eta), math.sqrt(p.eta)
    mu, nu = complex(p.mu), complex(p.nu)
    rot = cmath.exp(-0.5j * cmath.phase(mu * nu)) / 2.0 ** math.frexp(abs(a_zero))[1]
    n = np.arange(m + 1)
    diag = (se * (2 * n - m) * 0.5) * rot
    prods = hop_squares(m)  # (n+1)(m-n), n < m
    # u_n l_n, rotated and scaled; each factor scaled on its own: |rot|^2
    # alone overflows once |A0| < 1e-154
    c = (s * abs(mu) * abs(rot)) * (s * abs(nu) * abs(rot)) * prods
    # log |u_n| at row n for the part below r, log |l_{n-1}| for the part
    # above (-inf at nu = 0, where that part vanishes)
    log_b = math.log(s * abs(rot)) + 0.5 * np.log(prods)
    log_down, log_up = np.zeros((m + 1, 1)), np.full((m + 1, 1), -np.inf)
    log_down[:-1, 0] = math.log(abs(mu)) + log_b
    if nu:
        log_up[1:, 0] = math.log(abs(nu)) + log_b
    # v^-n, reduced mod 2 pi before exp
    phase = np.exp(-1j * ((n * cmath.phase(-mu * rot)) % (2 * math.pi)))[:, None]
    sign = np.ones((m + 1, 1))  # (-1)^(m-n)
    sign[(m + 1) % 2 :: 2] = -1.0
    diag_parts = np.empty((m + 1, 2, 1))
    diag_parts[:, 0, 0], diag_parts[:, 1, 0] = diag.real, diag.imag
    ks = np.asarray(ks)
    lows = np.flatnonzero(np.bincount(np.minimum(ks, m - ks)))  # distinct, ascending
    # with fewer ks than swept states, a mirror that is not asked for is
    # swept for its pivots alone
    asked = None
    if len(ks) < len(_with_mirrors(lows, m)):
        asked = np.zeros(m + 1, dtype=bool)
        asked[ks] = True
    # one block for the asked-for states, filled chunk by chunk: the chunks'
    # scratch arrays are then the only allocations that come and go
    states = np.empty((len(ks), m + 1), dtype=complex)
    for at in _chunks(len(lows), 2 * (m + 1)):
        k = _with_mirrors(lows[at], m)
        K = len(k)
        lam = (a_zero * rot) * ((2 * k - m) * 0.5)
        d = diag_parts - np.array([lam.real, lam.imag])
        if at.stop - at.start == 1:  # one pair k, m - k
            products = c.tolist()
            for col in range(K):
                xs, ys = d[:, 0, col].tolist(), d[:, 1, col].tolist()
                _sweep_floats(xs, ys, products)
                d[:, 0, col], d[:, 1, col] = xs, ys
        else:
            _sweep(d, c)
        piv = np.empty((m + 1, K), dtype=complex)  # the downward pivots D+
        piv.real, piv.imag = d[:, 0], d[:, 1]
        del d  # each array goes once read: that bounds a chunk's memory
        # the columns built into states, and their mirrors'
        if asked is None:
            built, cols, mirrors = np.arange(K), slice(None), slice(None, None, -1)
        else:
            built = cols = np.flatnonzero(asked[k])
            mirrors = K - 1 - built
        # D+ + D- - e, with D- of k the mirror's D+ reversed and negated
        gap = piv[:, cols] - piv[::-1, mirrors]
        gap -= np.subtract.outer(diag, lam[cols])
        r = np.argmin(np.abs(gap), axis=0)
        del gap
        below, up = n[:, None] < r, n[:, None] > r
        mods = np.abs(piv)
        turns = np.divide(piv, mods, out=piv)  # unit phases of the pivots
        logs = np.log(mods, out=mods)
        del piv, mods
        # log |z_n / z_r|, summed outward from r
        log_z = np.where(below, log_down - logs[:, cols], 0.0)
        np.cumsum(log_z[::-1], axis=0, out=log_z[::-1])
        steps = np.where(up, log_up - logs[::-1, mirrors], 0.0)
        del logs
        log_z += np.cumsum(steps, axis=0, out=steps)
        del steps
        # running products of the unit phases away from row 0, exclusive of
        # the row itself; from row m they are the mirror's, signed
        turns[1:] = turns[:-1]
        turns[0] = 1.0
        np.multiply.accumulate(turns, axis=0, out=turns)
        z = turns[::-1, mirrors] * sign
        z *= turns[r, built] * z[r, np.arange(len(built))].conj()
        np.copyto(z, turns[:, cols], where=~up)
        del turns
        log_z -= log_z.max(axis=0)
        z *= np.exp(log_z, out=log_z)
        z *= phase
        del log_z
        # a fresh block: normalized in place, then laid on its rows
        states[np.searchsorted(ks, k[built])] = normalize_rows(np.ascontiguousarray(z.T))
    return states


def _eigenstates(p: GBSParams, frame: _Frame, ks) -> np.ndarray:
    """The eigenstates ks on the frame's branch, solve's and eigenstate's one route.

    Generic states come from L's three bands by the twisted recurrence
    (_twisted_states), with no D(zeta); where the root delta is 0 (nu = 0),
    D(zeta) = I and they are their closed-form cores (_cores).  The other
    branches read columns of D(zeta).  Every route builds and normalizes the
    states in chunks of rows, so a state has the same bits alone as in a
    solve.
    """
    generic = frame.kind is SolutionKind.GENERIC
    if generic and frame.delta != 0:
        return _twisted_states(p, frame.triple.a_zero, ks)
    # off the generic branch, A+ = 0 leaves the diagonal -A0 J0, A0 = 0 the
    # nilpotent A+ J+ (a single Jordan chain headed by |0>); either way the
    # eigenvector is |k> and the eigenstate is column k of D
    d = None if generic else displacement(frame.zeta)
    ks = np.asarray(ks)
    states = np.empty((len(ks), p.m + 1), dtype=complex)
    for at in _chunks(len(ks), p.m + 1):
        states[at] = _cores(frame.triple, ks[at], p.m) if generic else d[:, ks[at]].T
        normalize_rows(states[at])
    return states


def eigenstate(p: GBSParams, k: int) -> np.ndarray:
    """solve(p).eigenstates[k], without building the other states.

    On the generic branch the state comes from the twisted factorization of
    L - lambda_k, in O(m), with its mirror m - k swept for its pivots only;
    eigenstate_sum builds the same state through D(zeta) as an independent
    check.  At delta = 0 (nu = 0) D(zeta) = I and both read the state off
    its closed-form core.  Raises ValueError for a k
    the branch does not carry: not an integer, outside 0..m, or k > 0 on the
    defective branch.
    """
    frame = _frame(p)
    _check_index(p, k, frame.kind)
    return _eigenstates(p, frame, [k])[0]


def undisplaced_eigenstate(p: GBSParams, k: int) -> np.ndarray:
    """Eigenstate of the rotated operator A+ J+ - A0 J0, before displacing back."""
    _check_index(p, k)
    return normalize_state(_cores(_generic_frame(p).triple, k, p.m))


class _Point(NamedTuple):
    """What eigenstate_sum and eigenstate_exponential read of a generic point."""

    frame: _Frame
    rotation: np.ndarray | None  # D(zeta); None at delta = 0, where D = I
    tables: _CoreTables


@functools.lru_cache(maxsize=1)
def _point(p: GBSParams) -> _Point:
    """The frame, D(zeta) and core tables of p, read-only, kept for the last
    point asked for.

    Only eigenstate_sum and eigenstate_exponential read it: they are called
    once per k at one point, and so derive the frame and build D(zeta) and
    the tables once for all m+1 states.  Equal keys differ at most in the
    signs of zero parts of mu and nu; their frames then differ at most in
    the sign of a zero A-, which no form reads, and they give the same bits.
    """
    frame = _generic_frame(p)
    rotation = None if frame.delta == 0 else displacement(frame.zeta)
    tables = _core_tables(frame.triple, p.m)
    for table in (rotation, tables.falling, tables.half_steps, tables.phase):
        if table is not None:
            table.setflags(write=False)
    return _Point(frame, rotation, tables)


def eigenstate_sum(p: GBSParams, k: int) -> np.ndarray:
    """Eigenstate via the finite-sum form, displaced back to the original frame.

    D(zeta) core_k, read only over the core's support: one gemv on k+1
    columns of D and one normalization.  It shares no step with eigenstate's
    twisted factorization beyond the frame, so the two check each other.
    At delta = 0, D(zeta) = I: the core is the state, and no D is built;
    eigenstate reads the same core there, so the tests check both against
    the twisted factorization instead.
    """
    _check_index(p, k)
    point = _point(p)
    core = _core(point.tables, k)
    if point.rotation is None:
        state = np.zeros(p.m + 1, dtype=complex)  # +0 past the support, as from a gemv
        state[: k + 1] = core
        return normalize_state(state)
    return normalize_state(point.rotation[:, : k + 1] @ core)


def _exponential_form_core(triple: CoefficientTriple, k: int, m: int) -> np.ndarray:
    """Rotated-frame eigenstate as exp of a weighted lowering operator on |0>.

    The exponent is (A0/A+) sqrt((k-N+1)/(m-N+1)) acting after a^dag sqrt(k-N);
    on the n <= k sector its only matrix elements are
        (n+1, n): (A0/A+) (k - n) sqrt((n+1)/(m-n)),
    and it annihilates everything above, so the series applied to the vacuum
    terminates after k+1 terms.  Its j-th term lives on |j> alone, so each
    amplitude is the one before times one matrix element over j.
    """
    ratio = triple.a_zero / triple.a_plus
    t = 1.0 + 0j
    amplitudes = [t]
    for n in range(k):
        t *= ratio * (k - n) * math.sqrt((n + 1) / (m - n)) / (n + 1)
        big = abs(t)
        if big > 1e200:
            amplitudes = [a / big for a in amplitudes]
            t /= big
        amplitudes.append(t)
    v = np.zeros(m + 1, dtype=complex)
    v[: k + 1] = amplitudes
    return v


def eigenstate_exponential(p: GBSParams, k: int) -> np.ndarray:
    """Eigenstate via the exponential form; equal to eigenstate_sum."""
    _check_index(p, k)
    point = _point(p)
    core = _exponential_form_core(point.frame.triple, k, p.m)
    if point.rotation is None:  # D(zeta) = I
        return normalize_state(core)
    return normalize_state(point.rotation @ core)


def solve(p: GBSParams) -> GBSSolution:
    """Full closed-form solution: root, rotation, coefficients, spectrum, states.

    Raises ValueError, before it allocates, when its (m+1)^2 amplitudes would
    exceed fock.AMPLITUDE_CAP, i.e. for m >= 8192: the m+1 states, or on the
    defective branch the D(zeta) its one state is read from.
    """
    block = (p.m + 1) * (p.m + 1)
    if block > AMPLITUDE_CAP:
        raise ValueError(f"a solve at m = {p.m} needs {block} amplitudes, above the cap {AMPLITUDE_CAP}")
    frame = _frame(p)
    count = 1 if frame.kind is SolutionKind.DEFECTIVE_A_ZERO_ZERO else p.m + 1
    return GBSSolution(
        params=p,
        delta_root=frame.delta,
        zeta=frame.zeta,
        triple=frame.triple,
        eigenvalues=_ladder(frame.triple.a_zero, p.m),
        eigenstates=_eigenstates(p, frame, range(count)),
        kind=frame.kind,
    )


def binomial_phase_parameters(p: GBSParams) -> tuple[float, float, float]:
    """(eta', theta0, theta+) of the top rotated-frame eigenstate.

    The k = m eigenstate, before displacing back, is a binomial state with
    probability eta' = |A0|^2 / (|A0|^2 + |A+|^2) and phases e^{i n (theta0
    - theta+)}, where theta0 and theta+ are the arguments of A0 and A+.
    """
    triple = _generic_frame(p).triple
    a0 = abs(triple.a_zero)
    ap = abs(triple.a_plus)
    eta_prime = a0 * a0 / (a0 * a0 + ap * ap)
    theta0 = cmath.phase(triple.a_zero)
    theta_plus = cmath.phase(triple.a_plus)
    return eta_prime, theta0, theta_plus
