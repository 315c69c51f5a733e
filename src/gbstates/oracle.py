"""Independent eigensolver on L's three bands, used to verify the closed form.

compare takes L's sub-, main and superdiagonal from the parameters
(solver.bands) and never builds L.  It picks one of three routes from the
parameters and the branch, and reports it as SpectrumReport.method:

  * "sturm", the real slice: mu nu real and >= 0 up to the rounding of a
    gauge turn, nu = 0 included (a test on the phases of mu and nu alone).
    There L is similar to a real symmetric tridiagonal T_R up to a
    Bauer-Fike term of Im(mu nu), and a Sturm count of T_R's negative pivots
    (Sylvester's inertia), at every closed-form value plus and minus a tight
    radius r at once, proves one eigenvalue in each interval (_sturm_radius).
    max_pair_error is that proven radius: r, plus the count's backward
    error, plus the Bauer-Fike term.  No LAPACK runs, and the oracle's
    eigenvalues are the certified centres, the closed-form values.  Where
    the count proves no radius within pair_bound, the LAPACK route decides.
  * "none", the defective branch: the verdict reads only the residual, and
    no spectrum is computed.  On that near-Jordan fold `eigvals` costs
    O(m^3) and its values scatter like (eps |L|)^(1/(m+1)) anyway.
  * "lapack", everywhere else.  The symmetrized T' = tridiag(e, d, e),
    e_n = sqrt(sub_n sup_n), which has the same continuant and so the same
    characteristic polynomial; LAPACK's eigenvalues as starting values; and
    two Newton steps on det(L - z), by the three-term continuant of its
    leading minors.  max_pair_error is the distance of the greedy pairing
    to those polished values, an estimate, not a bound.

dense_spectrum, which only the benchmark's dense replay calls, reads the
bands off a dense L, rejects a matrix without L's +-lambda symmetry and runs
the LAPACK route's spectrum.  L's bands have d[::-1] == -d and e[::-1] == e
exactly, so its spectrum comes in +-lambda pairs, and LAPACK only sees the
h x h matrix W of T'^2 folded on that symmetry, h = floor((m+1)/2): the
starting values are +sqrt of its eigenvalues, only those h are polished,
and the spectrum is them, their negatives and, for even m, an exact 0.
LAPACK's routine is `eigvalsh` where W is Hermitian up to rounding, as it is
wherever mu nu > 0, and `eigvals` otherwise.  Nothing here reads the root,
the rotation or the coefficient triple; the closed form calls no `eigvals`;
and the polish, not LAPACK, sets the final accuracy, so LAPACK's values only
have to lie in each root's basin.  Cost on an n x n tridiagonal: O(n^2) and
O(n) memory for the Sturm count; on the LAPACK route, O(n) to symmetrize
and fold, O((n/2)^3) in LAPACK, several times less with `eigvalsh`, and O(n)
per polished eigenvalue and Newton step, over n/2 eigenvalues; and O(n) per
state for the residuals.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .fock import hop_squares
from .solver import GBSParams, GBSSolution, SolutionKind, bands, operator_norm

_EPS = float(np.finfo(float).eps)

# LAPACK's starting values carry a forward error amplified by the eigenvalue
# condition number; inside a root's basin Newton converges quadratically, so
# two corrections pull them back to ~eps * |T|
_NEWTON_STEPS = 2

# LAPACK takes eigvalsh on a matrix a with |a - a^H|_F at most this times
# |a|_F: its values then lie within that distance of a's (_lapack_eigenvalues),
# at rounding level like LAPACK's own backward error, so inside every root's
# basin.  W measures at most 2.4 eps on 2800 gauge-turned points of the slice
# mu nu > 0 (m <= 300) and 2.3e14 eps 0.03 rad off it; 16 eps keeps the two
# apart.
_HERMITIAN_DEFECT = 16 * _EPS

# The real slice: |arg(mu nu)| at most this, a few hundred times the rounding
# a gauge turn leaves in it, and far below the 0.03 rad of the near-normal
# points, whose Bauer-Fike term alone would pass the pair bound
_SLICE_PHASE = 64 * _EPS

# The Sturm count's floor on a pivot's modulus, on T_R scaled to entries
# below 1: b^2 / _PIVMIN stays below 2^1022
_PIVMIN = float(np.finfo(float).tiny)

# The continuant divides its pairs by their largest modulus when the growth
# bound since the last division would pass 2^_GROWTH_BITS, short of the
# double range's 2^1024.  That bound cannot see a run of rows that shrinks
# the pairs, so they are also divided after at most _RESCALE_ROWS rows: on a
# T scaled to entries of modulus 1 at most, each of 16 rows would have to
# shrink them by 2^-64 for the run to leave the normal range.
_GROWTH_BITS = 1000.0
_RESCALE_ROWS = 16


class NonConvergenceError(RuntimeError):
    """LAPACK's eigenvalue iteration failed to converge."""


@dataclass
class SpectrumReport:
    """Oracle vs closed-form comparison for one parameter point, with its verdict.

    pairing maps closed-form indices to oracle indices (a bijection).  When
    the defective branch collapses all eigenvalues onto one point, pairing
    them is meaningless (a Jordan block scatters numerically at the
    eps^(1/(m+1)) scale); multiplicity_collapse is set instead and the pair
    error is left undefined.

    The report carries the verdict too: pair_bound = 1e-9 (1 + max|closed-form
    eigenvalue|) and residual_bound = 1e-10 |L|_F are the bounds the errors
    must meet, and passed applies them.  Callers read these instead of
    re-deriving them.

    method names compare's route (see the module docstring), and so what
    max_pair_error means:
      * "sturm": a proven bound on every |eigenvalue of L - closed-form
        value|; oracle_eigenvalues are the certified centres, the
        closed-form values, each paired with itself;
      * "lapack": the largest distance of the greedy pairing to LAPACK's
        values after the Newton polish;
      * "none": the defective branch, where no spectrum is computed:
        oracle_eigenvalues is empty and max_pair_error None.

    lapack_routine names the LAPACK routine that gave the oracle's starting
    values, "eigvalsh" or "eigvals", or "" where LAPACK did not run, and
    skipped_newton_steps counts the Newton steps the skip rule rejected over
    the values polished.
    """

    oracle_eigenvalues: np.ndarray
    closed_form_eigenvalues: np.ndarray
    pair_bound: float
    residual_bound: float
    pairing: list[tuple[int, int]] = field(default_factory=list)
    max_pair_error: float | None = None
    max_residual: float | None = None
    multiplicity_collapse: bool = False
    method: str = ""
    lapack_routine: str = ""
    skipped_newton_steps: int = 0

    @property
    def passed(self) -> bool:
        """Residual within its bound and, unless the multiplicity collapsed,
        pair error within its bound."""
        if not self.max_residual <= self.residual_bound:
            return False
        return self.multiplicity_collapse or self.max_pair_error <= self.pair_bound


def _symmetrized(sub, sup) -> tuple[np.ndarray, np.ndarray]:
    """(e, prods) with e_n = sqrt(sub_n) sqrt(sup_n) and prods_n = sub_n sup_n.

    tridiag(e, d, e) has the continuant, so the characteristic polynomial, of
    tridiag(sub, d, sup), since e_n^2 = sub_n sup_n; e multiplies the square
    roots, so it stays finite and nonzero where the product underflows.
    """
    # GBSParams' bounds keep |sub_n sup_n| <= (1-eta) |mu nu| (m+1)^2 / 4 < 1e116
    return np.sqrt(sub) * np.sqrt(sup), sub * sup


def _folded_square(diag, e) -> np.ndarray:
    """W, T'^2 on the smaller eigenspace of J as an h x h matrix, T' = tridiag(e, d, e).

    Needs d[::-1] == -d and e[::-1] == e.  Then J|n> = (-1)^(m-n) |m-n>
    anticommutes with T' and J^2 = (-1)^m, so T'^2 commutes with J, and on
    either eigenspace of J its eigenvalues are the squares of T''s +-lambda
    pairs.  The eigenspace of omega is spanned by |i> + c_i |m-i>, i < h,
    c_i = omega (-1)^i: h = (m+1)/2 and omega = i for odd m; h = m/2 and
    omega = -(-1)^(m/2), the eigenspace without |m/2>, for even m.  In that
    basis W_ij = (T'^2)_ij + c_j (T'^2)_{i,m-j}: pentadiagonal, with the fold
    term only in the bottom-right 2 x 2 corner.
    """
    n = len(diag)
    m, h = n - 1, n // 2
    ep = np.concatenate([[0.0], e, [0.0]])
    sq = (
        diag**2 + ep[:-1] ** 2 + ep[1:] ** 2,  # (T'^2)_{i,i}
        e * (diag[:-1] + diag[1:]),  # (T'^2)_{i,i+1}, also (T'^2)_{i+1,i}
        e[:-1] * e[1:],  # (T'^2)_{i,i+2}, also (T'^2)_{i+2,i}
    )
    w = np.zeros((h, h), dtype=complex)
    for k, band in enumerate(sq):
        i = np.arange(max(h - k, 0))
        w[i, i + k] = w[i + k, i] = band[i]
    omega = 1j if m % 2 else -((-1) ** (m // 2))
    for i in range(max(h - 2, 0), h):
        for j in range(max(h - 2, 0), h):
            k = m - j - i  # (T'^2)_{i,m-j} = (T'^2)_{i,i+k}, and k >= 1 here
            if k <= 2:
                w[i, j] += omega * (-1) ** j * sq[k][i]
    return w


def _power_of_two_near(peak: float) -> float:
    """2^s with peak / 2^s in [0.5, 1) for a normal peak, s clipped to [-1000, 1000]."""
    return math.ldexp(1.0, min(max(math.frexp(peak)[1], -1000), 1000))


def _lapack_eigenvalues(a: np.ndarray) -> tuple[np.ndarray, str]:
    """a's eigenvalues from LAPACK, as complex numbers, and the routine that gave them.

    eigvalsh where a's skew-Hermitian part is at rounding level, eigvals
    otherwise.  eigvalsh reads one triangle, so it solves the Hermitian H
    next to a with |a - H|_2 <= |a - a^H|_F; H is normal, so by Bauer-Fike
    every eigenvalue of a lies within that distance of one of H's.
    """
    hermitian = np.linalg.norm(a - a.conj().T) <= _HERMITIAN_DEFECT * np.linalg.norm(a)
    try:
        values = np.linalg.eigvalsh(a) if hermitian else np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(
            f"LAPACK eigenvalue iteration failed on a {len(a)}x{len(a)} matrix: {exc}"
        ) from exc
    return values.astype(complex), "eigvalsh" if hermitian else "eigvals"


def _log_det_derivative(diag, prods, z: np.ndarray) -> np.ndarray:
    """d/dz log det(T - z) = f'_n / f_n at every z, for a tridiagonal T with
    this diagonal and these products sub_i sup_i of its off-diagonals.

    The leading principal minors of T - z obey the continuant
    f_{i+1} = (d_i - z) f_i - sub_{i-1} sup_{i-1} f_{i-1}, f_0 = 1, f_{-1} = 0
    (Wilkinson, The Algebraic Eigenvalue Problem, ch. 7); f' obeys its
    derivative, which adds -f_i.  Row i multiplies the largest modulus of the
    pairs (f, f') in hand by at most |d_i| + max|z| + |sub_{i-1} sup_{i-1}| + 1.
    Both pairs are divided by their largest modulus before the product of
    these bounds since the last division passes 2^_GROWTH_BITS, and after at
    most _RESCALE_ROWS rows: f'/f is unchanged and nothing overflows.  No
    step divides by an off-diagonal entry.  O(n) per z.  At a z with f = 0,
    an eigenvalue of T, the log-derivative has a pole: the result there is
    inf + 0j, not the inf + nan i or nan of a complex division by zero.
    """
    gap = np.subtract.outer(diag, z)
    minus_prods = np.concatenate([[0.0], -prods])
    growth = np.log2(np.abs(diag) + np.abs(z).max(initial=0.0) + np.abs(minus_prods) + 1.0)
    y = np.zeros((4, len(z)), dtype=complex)
    old, new = y[:2], y[2:]  # (f, f') of minors i - 1 and i
    new[0] = 1.0
    bits, rows = 0.0, 0
    for g, c, grow in zip(gap, minus_prods, growth.tolist()):
        bits += grow
        rows += 1
        if bits > _GROWTH_BITS or rows > _RESCALE_ROWS:
            y /= np.abs(y).max(axis=0)
            bits, rows = grow, 1
        old *= c  # minor i + 1 overwrites minor i - 1
        old += g * new
        old[1] -= new[0]
        old, new = new, old
    pole = np.full(len(z), np.inf, dtype=complex)
    return np.divide(new[1], new[0], out=pole, where=new[0] != 0)


def _newton_polish(diag, prods, eigenvalues: np.ndarray) -> tuple[np.ndarray, int]:
    """_NEWTON_STEPS steps z <- z - 1/(d/dz log det(T - z)), all eigenvalues at
    once, and the number of steps skipped.

    A step that is non-finite or larger than 0.5 |T'|_F + 1 is skipped, which
    leaves that value where it was.  A value with det(T - z) = 0 exactly is
    an eigenvalue: its step, -1/inf, is zero and is not counted as skipped.
    The continuant runs on T and z divided by a power of two near T's
    largest entry, which is exact, so it meets entries of modulus about 1 at
    most whatever the scale of T.
    """
    cap = 0.5 * math.hypot(*np.abs(diag), *np.sqrt(2.0 * np.abs(prods))) + 1.0
    peak = max(np.abs(diag).max(initial=0.0), math.sqrt(np.abs(prods).max(initial=0.0)))
    scale = _power_of_two_near(peak)
    diag, prods = diag / scale, prods / scale / scale
    z = np.array(eigenvalues, dtype=complex)
    skipped = 0
    for _ in range(_NEWTON_STEPS):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = -scale / _log_det_derivative(diag, prods, z / scale)
        ok = np.isfinite(step) & (np.abs(step) <= cap)
        z[ok] += step[ok]
        skipped += len(z) - int(np.count_nonzero(ok))
    return z, skipped


def _band_spectrum(sub, diag, sup) -> tuple[np.ndarray, str, int]:
    """All eigenvalues of the tridiagonal with these bands, the LAPACK routine
    that gave their starting values, and the Newton steps skipped.

    Needs L's exact +-lambda symmetry, d[::-1] == -d and e[::-1] == e, which
    bands(p) always has.  Symmetrize; LAPACK on the h x h W of
    _folded_square; polish W's h roots: the rest are their negatives and,
    for an odd size, an exact 0.
    """
    e, prods = _symmetrized(sub, sup)
    # T' / 2^s has entries below 1 in modulus, so T'^2's neither overflow
    # nor, unless T' spans half the double range, underflow
    scale = _power_of_two_near(max(np.abs(diag).max(initial=0.0), np.abs(e).max(initial=0.0)))
    w, routine = _lapack_eigenvalues(_folded_square(diag / scale, e / scale))
    roots, skipped = _newton_polish(diag, prods, np.sqrt(w) * scale)
    return np.concatenate([roots, -roots, np.zeros(len(diag) % 2)]), routine, skipped


def dense_spectrum(op: np.ndarray) -> np.ndarray:
    """compare's spectrum of a dense L, read off its three bands.

    The package never builds L: this and solver.build_operator serve only the
    benchmark's dense replay (perfbench/calls.py), which times the two
    together.  Raises ValueError for a matrix that is not square, finite and
    tridiagonal, whose off-diagonal product sub_n sup_n overflows, or that
    lacks L's exact +-lambda symmetry, and NonConvergenceError when LAPACK's
    iteration fails.
    """
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"dense_spectrum needs a square matrix, got shape {op.shape}")
    if not np.all(np.isfinite(op)):
        raise ValueError("dense_spectrum needs finite entries")
    sub, diag, sup = op_bands = tuple(np.diagonal(op, j) for j in (-1, 0, 1))
    if np.count_nonzero(op) != sum(map(np.count_nonzero, op_bands)):
        raise ValueError("dense_spectrum needs a tridiagonal matrix, got an entry off the bands")
    with np.errstate(over="ignore", invalid="ignore"):
        e, prods = _symmetrized(sub, sup)
    bad = np.flatnonzero(~np.isfinite(prods))
    if len(bad):
        n = int(bad[0])
        raise ValueError(f"the off-diagonal product sub[{n}] * sup[{n}] = ({sub[n]:.3g}) * ({sup[n]:.3g}) "
                         f"overflows the double range")
    if not (np.array_equal(diag[::-1], -diag) and np.array_equal(e[::-1], e)):
        raise ValueError("dense_spectrum needs L's exact +-lambda symmetry, d[::-1] == -d and e[::-1] == e")
    return _band_spectrum(sub, diag, sup)[0]


def _greedy_pairing(
    closed: np.ndarray, oracle: np.ndarray
) -> tuple[list[tuple[int, int]], float]:
    """Nearest-neighbor pairing of the two sorted-by-real-part lists.

    Each closed-form value, in sorted order, takes the nearest oracle value
    not yet taken.  When every value's nearest oracle value is a different
    one, that is what each takes, and no loop runs.
    """
    order_c = np.argsort(closed.real + 1e-12 * closed.imag)
    order_o = np.argsort(oracle.real + 1e-12 * oracle.imag)
    dist = np.abs(oracle[order_o] - closed[order_c, None])
    nearest = dist.argmin(axis=1)
    errors = dist[np.arange(len(nearest)), nearest]
    if len(set(nearest.tolist())) < len(nearest):
        for i, row in enumerate(dist):
            nearest[i] = j = int(np.argmin(row))
            errors[i] = row[j]
            dist[:, j] = np.inf
    pairing = sorted(zip(order_c.tolist(), order_o[nearest].tolist()))
    return pairing, max([0.0, *errors.tolist()])


def _split_modulus(z: complex) -> tuple[float, int]:
    """(f, e) with |z| = f 2^e, f in [0.5, 1.5) or 0: |z| without over- or underflow.

    z is scaled by a power of two, exactly, before its modulus is taken, so a
    subnormal part keeps its relative accuracy.
    """
    e = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    return abs(complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e))), e


def _slice_phase_bound(p: GBSParams) -> float | None:
    """A bound on |arg(mu nu)| where the point lies on the real slice, else None.

    The slice is mu nu real and >= 0 up to the rounding a gauge turn
    (mu e^-it, nu e^it) leaves in it, nu = 0 included.  The phase comes from
    the two factors' own, so a product that underflows keeps it; each
    cmath.phase and the wrap mod 2 pi err by an ulp or two of pi at most.
    """
    if p.nu == 0:
        return 0.0
    a, b = cmath.phase(p.mu), cmath.phase(p.nu)
    phi = abs(math.remainder(a + b, 2.0 * math.pi))
    if phi > _SLICE_PHASE:
        return None
    return phi + 4.0 * _EPS * (abs(a) + abs(b))


def _sturm_radius(p: GBSParams, diag: np.ndarray, closed: np.ndarray, phase: float,
                  pair_bound: float) -> float | None:
    """A proven bound on every |eigenvalue of L - closed-form value|, pairing
    each closed-form value with its own eigenvalue, or None where no radius
    within pair_bound can be proven this way.

    T_R = tridiag(b, d, b), b_n^2 = (1-eta) |mu| |nu| (n+1)(m-n), is real
    symmetric.  L's characteristic polynomial reads only d and the products
    sub_n sup_n = b_n^2 e^{i phi}, phi = arg(mu nu), so it is that of T_R + E,
    E = tridiag(b (e^{i phi/2} - 1), 0, b (e^{i phi/2} - 1)), with
    |E|_2 <= max b |phi|: by Bauer-Fike, T_R being normal, L's eigenvalues
    lie within rho = that bound of T_R's.

    The number of negative pivots q_i = (d_i - x) - b_{i-1}^2 / q_{i-1} is the
    number of T_R's eigenvalues below x (Sylvester's inertia; Barth, Martin
    & Wilkinson, Numer. Math. 9, 1967).  In floating point the count is exact
    for a T_R whose b_n^2 carry four more roundings (Kahan, 1966; Demmel,
    Dhillon & Ren, ETNA 3, 1995): with the roundings of d and b^2 from the
    parameters, every entry within 3 eps of its own modulus, so by Weyl
    every eigenvalue within beta = eps (max|d| + 6 max b) of T_R's.  The
    count runs on T_R scaled by a power of two near its largest entry, which
    is exact, and, as LAPACK's dstebz does, takes a pivot below _PIVMIN in
    modulus as -_PIVMIN, which moves a diagonal entry by at most twice that
    and keeps every quotient b^2 / q finite.

    Every closed-form value lambda_k is paired with the k-th eigenvalue in
    ascending order of real parts, and the count runs at all x = Re lambda_k
    +- r at once, one loop over the rows, with r = beta + rho + 4 eps
    max|lambda|, several times the closed form's own rounding.  If the
    counts below lambda_k - r and lambda_k + r are k and k + 1, and the
    intervals stay 2 (beta + rho) apart, each holds one eigenvalue of T_R
    within beta, and one of L within rho: every pair error is at most
    r + beta + rho + |Im lambda_k|, plus the rounding of the shifts.  O(m)
    per shift, O(m^2) in all, and O(m) memory.
    """
    m = p.m
    f_mu, e_mu = _split_modulus(complex(p.mu))
    f_nu, e_nu = _split_modulus(complex(p.nu))
    # (1-eta) |mu| |nu| = f 2^e, and b_n^2 its multiple by the integer (n+1)(m-n)
    f, e = (1.0 - p.eta) * f_mu * f_nu, e_mu + e_nu
    half, odd = divmod(e, 2)
    b_peak = math.ldexp(math.sqrt(math.ldexp(f, odd) * (((m + 1) // 2) * ((m + 2) // 2))), half)
    d_peak = float(np.abs(diag).max())
    scale = _power_of_two_near(max(d_peak, b_peak))
    # + the floor and underflow in the scaled count: a b^2 that underflows
    # moves b by at most sqrt(2^-1074)
    beta = _EPS * (d_peak + 6.0 * b_peak) + scale * 2.0**-500
    rho = b_peak * phase * (1.0 + 4.0 * _EPS)
    order = np.argsort(closed.real)
    centres = closed.real[order]
    im = float(np.abs(closed.imag).max())
    peak = float(np.abs(centres).max())
    r = beta + rho + 4.0 * _EPS * peak
    radius = r + 0.5 * _EPS * (peak + r) + beta + rho + im
    if not (radius <= pair_bound and np.all(centres[1:] - centres[:-1] > 2.0 * (r + beta + rho))):
        return None
    x = np.concatenate([centres - r, centres + r]) / scale
    a = (diag / scale).tolist()
    b2 = (math.ldexp(f, e - 2 * (math.frexp(scale)[1] - 1)) * hop_squares(m)).tolist()
    q = a[0] - x
    count = np.zeros(len(x), dtype=np.int64)
    neg, tiny, u = np.empty(len(x), dtype=bool), np.empty(len(x), dtype=bool), np.empty(len(x))
    for a_i, b2_i in zip(a[1:], b2):
        # a pivot below _PIVMIN in modulus counts, and divides, as -_PIVMIN
        np.less(q, _PIVMIN, out=neg)
        count += neg
        np.greater(q, -_PIVMIN, out=tiny)
        tiny &= neg
        np.copyto(q, -_PIVMIN, where=tiny)
        np.divide(b2_i, q, out=u)
        np.subtract(a_i, x, out=q)
        q -= u
    count += q < _PIVMIN
    k = np.arange(m + 1)
    if not (np.array_equal(count[: m + 1], k) and np.array_equal(count[m + 1 :], k + 1)):
        return None
    return radius


def compare(p: GBSParams, solution: GBSSolution) -> SpectrumReport:
    """Check a closed-form solution against this module's eigensolver, run on bands(p).

    Pairs the two eigenvalue lists and records the worst pair distance and
    the worst eigenstate residual |L v - lambda v|, with the bounds each must
    meet.  On the real slice the pair error is the radius the Sturm count
    proves, where it proves one within pair_bound; elsewhere, and where it
    does not, it is the distance to the polished LAPACK spectrum.  A
    defective solution is flagged as a multiplicity collapse instead of being
    paired, and no spectrum is computed for it.
    """
    if solution.params != p:
        raise ValueError("solution was produced from different parameters")
    closed_vals = np.asarray(solution.eigenvalues, dtype=complex)
    if len(closed_vals) != p.m + 1:
        raise ValueError(f"size mismatch: oracle {p.m + 1} vs closed form {len(closed_vals)}")
    sub, diag, sup = bands(p)
    report = SpectrumReport(
        oracle_eigenvalues=np.empty(0, dtype=complex),
        closed_form_eigenvalues=closed_vals,
        pair_bound=1e-9 * (1.0 + float(np.abs(closed_vals).max())),
        residual_bound=1e-10 * operator_norm(p),
        method="none",
    )
    if solution.kind is SolutionKind.DEFECTIVE_A_ZERO_ZERO:
        report.multiplicity_collapse = True
    else:
        phase = _slice_phase_bound(p)
        radius = None if phase is None else _sturm_radius(p, diag.real, closed_vals, phase, report.pair_bound)
        if radius is not None:
            report.method, report.max_pair_error = "sturm", radius
            report.oracle_eigenvalues = closed_vals
            report.pairing = [(k, k) for k in range(p.m + 1)]
        else:
            oracle_vals, report.lapack_routine, report.skipped_newton_steps = _band_spectrum(sub, diag, sup)
            report.method, report.oracle_eigenvalues = "lapack", oracle_vals
            report.pairing, report.max_pair_error = _greedy_pairing(closed_vals, oracle_vals)
    # |L v - lambda v| from the three bands, one state per row
    states = np.asarray(solution.eigenstates)
    res = (diag - (0.0 if report.multiplicity_collapse else closed_vals[:, None])) * states
    res[:, 1:] += sub * states[:, :-1]
    res[:, :-1] += sup * states[:, 1:]
    report.max_residual = float(np.linalg.norm(res, axis=1).max())
    return report
