"""Independent eigensolver on L's three bands, used to verify the closed form.

compare takes L's sub-, main and superdiagonal from the parameters
(solver.bands) and never builds L; dense_spectrum reads them off a matrix.
Then: the symmetrized T' = tridiag(e, d, e), e_n = sqrt(sub_n sup_n), which
has the same continuant and so the same characteristic polynomial; LAPACK's
eigenvalues as starting values; and two Newton steps on det(L - z), by the
three-term continuant of its leading minors.  L's bands have d[::-1] == -d
and e[::-1] == e exactly, so its spectrum comes in +-lambda pairs, and
LAPACK only sees the h x h matrix W of T'^2 folded on that symmetry,
h = floor((m+1)/2): the starting values are +sqrt of its eigenvalues, only
those h are polished, and the spectrum is them, their negatives and, for
even m, an exact 0.  A tridiagonal without the exact symmetry hands LAPACK
T' itself and polishes all its values.  LAPACK's routine is `eigvalsh` where
the matrix is Hermitian up to rounding, as W is wherever mu nu > 0 (the
Hermitian branch among them), and `eigvals` otherwise.  Nothing here reads
the root, the rotation or the coefficient triple; the closed form calls no
`eigvals`; and the polish, not LAPACK, sets the final accuracy, so LAPACK's
values only have to lie in each root's basin.  Cost on an n x n
tridiagonal: O(n) to symmetrize and fold; O((n/2)^3) in LAPACK, several
times less with `eigvalsh` (O(n^3) without the symmetry); O(n) per polished
eigenvalue and Newton step, over n/2 eigenvalues with the symmetry; and O(n)
per state for the residuals.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .solver import GBSParams, GBSSolution, SolutionKind, _tridiagonal, bands, operator_norm

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
_HERMITIAN_DEFECT = 16 * np.finfo(float).eps

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

    lapack_routine names the LAPACK routine that gave the oracle's starting
    values, "eigvalsh" or "eigvals", and skipped_newton_steps counts the
    Newton steps the skip rule rejected over the values polished.
    """

    oracle_eigenvalues: np.ndarray
    closed_form_eigenvalues: np.ndarray
    pair_bound: float
    residual_bound: float
    pairing: list[tuple[int, int]] = field(default_factory=list)
    max_pair_error: float | None = None
    max_residual: float | None = None
    multiplicity_collapse: bool = False
    lapack_routine: str = ""
    skipped_newton_steps: int = 0

    @property
    def passed(self) -> bool:
        """Residual within its bound and, unless the multiplicity collapsed,
        pair error within its bound."""
        if not self.max_residual <= self.residual_bound:
            return False
        return self.multiplicity_collapse or self.max_pair_error <= self.pair_bound


def _bands(op: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sub, diag, sup) of a square, finite, tridiagonal matrix; ValueError otherwise."""
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"dense_spectrum needs a square matrix, got shape {op.shape}")
    if not np.all(np.isfinite(op)):
        raise ValueError("dense_spectrum needs finite entries")
    bands = tuple(np.diagonal(op, j) for j in (-1, 0, 1))
    if np.count_nonzero(op) != sum(map(np.count_nonzero, bands)):
        raise ValueError("dense_spectrum needs a tridiagonal matrix, got an entry off the bands")
    return bands


def _symmetrized(sub, sup) -> tuple[np.ndarray, np.ndarray]:
    """(e, prods) with e_n = sqrt(sub_n) sqrt(sup_n) and prods_n = sub_n sup_n.

    tridiag(e, d, e) has the continuant, so the characteristic polynomial, of
    tridiag(sub, d, sup), since e_n^2 = sub_n sup_n; e multiplies the square
    roots, so it stays finite and nonzero where the product underflows.
    Raises ValueError, naming the product, where sub_n sup_n overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        prods = sub * sup
    bad = np.flatnonzero(~np.isfinite(prods))
    if len(bad):
        n = int(bad[0])
        raise ValueError(
            f"the off-diagonal product sub[{n}] * sup[{n}] = ({sub[n]:.3g}) * ({sup[n]:.3g}) "
            f"overflows the double range"
        )
    return np.sqrt(sub) * np.sqrt(sup), prods


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

    Symmetrize; LAPACK on the h x h W of _folded_square where T' has the
    exact +-lambda symmetry, else on T' itself; polish.  With the symmetry
    only W's h roots are polished: the rest are their negatives and, for an
    odd size, an exact 0.
    """
    e, prods = _symmetrized(sub, sup)
    if not (np.array_equal(diag[::-1], -diag) and np.array_equal(e[::-1], e)):
        starts, routine = _lapack_eigenvalues(_tridiagonal(e, diag, e))
        values, skipped = _newton_polish(diag, prods, starts)
        return values, routine, skipped
    # T' / 2^s has entries below 1 in modulus, so T'^2's neither overflow
    # nor, unless T' spans half the double range, underflow
    scale = _power_of_two_near(max(np.abs(diag).max(initial=0.0), np.abs(e).max(initial=0.0)))
    w, routine = _lapack_eigenvalues(_folded_square(diag / scale, e / scale))
    roots, skipped = _newton_polish(diag, prods, np.sqrt(w) * scale)
    return np.concatenate([roots, -roots, np.zeros(len(diag) % 2)]), routine, skipped


def dense_spectrum(op: np.ndarray) -> np.ndarray:
    """All eigenvalues of a tridiagonal complex matrix, with algebraic multiplicity.

    Reads op's three bands, symmetrizes the off-diagonals, takes LAPACK's
    eigenvalues of the folded half-size matrix (of the symmetrized one when
    op lacks the +-lambda symmetry), by eigvalsh where that matrix is
    Hermitian up to rounding, and polishes them by two Newton steps on the
    continuant (one value of each +-lambda pair with the symmetry).  Raises
    ValueError for a matrix that is not square, finite and tridiagonal, or
    with an off-diagonal product sub_n sup_n beyond the double range, and
    NonConvergenceError when LAPACK's iteration fails; never returns a
    silently truncated spectrum.
    """
    return _band_spectrum(*_bands(op))[0]


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


def compare(p: GBSParams, solution: GBSSolution) -> SpectrumReport:
    """Check a closed-form solution against this module's eigensolver, run on bands(p).

    Pairs the two eigenvalue lists and records the worst pair distance and
    the worst eigenstate residual |L v - lambda v|, with the bounds each must
    meet.  A defective solution is flagged as a multiplicity collapse instead
    of being force-paired.
    """
    if solution.params != p:
        raise ValueError("solution was produced from different parameters")
    sub, diag, sup = bands(p)
    oracle_vals, routine, skipped = _band_spectrum(sub, diag, sup)
    closed_vals = np.asarray(solution.eigenvalues, dtype=complex)
    if len(oracle_vals) != len(closed_vals):
        raise ValueError(
            f"size mismatch: oracle {len(oracle_vals)} vs closed form {len(closed_vals)}"
        )
    report = SpectrumReport(
        oracle_eigenvalues=oracle_vals,
        closed_form_eigenvalues=closed_vals,
        pair_bound=1e-9 * (1.0 + float(np.abs(closed_vals).max())),
        residual_bound=1e-10 * operator_norm(p),
        lapack_routine=routine,
        skipped_newton_steps=skipped,
    )
    if solution.kind is SolutionKind.DEFECTIVE_A_ZERO_ZERO:
        report.multiplicity_collapse = True
    else:
        report.pairing, report.max_pair_error = _greedy_pairing(closed_vals, oracle_vals)
    # |L v - lambda v| from the three bands, one state per row
    states = np.asarray(solution.eigenstates)
    res = (diag - (0.0 if report.multiplicity_collapse else closed_vals[:, None])) * states
    res[:, 1:] += sub * states[:, :-1]
    res[:, :-1] += sup * states[:, 1:]
    report.max_residual = float(np.linalg.norm(res, axis=1).max())
    return report
