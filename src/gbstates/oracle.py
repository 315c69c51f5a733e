"""Independent eigensolver on L's three bands, used to verify the closed form.

compare takes L's sub-, main and superdiagonal from the parameters
(solver.bands) and never builds L; dense_spectrum reads them off a matrix.
Then: the symmetrized T' = tridiag(e, d, e), e_n = sqrt(sub_n sup_n), which
has the same continuant and so the same characteristic polynomial; LAPACK's
eigenvalues (`np.linalg.eigvals`) as starting values; and two Newton steps
on det(L - z), by the three-term continuant of its leading minors.  L's
bands have d[::-1] == -d and e[::-1] == e exactly, so its spectrum comes in
+-lambda pairs, and LAPACK only sees the h x h matrix of T'^2 folded on that
symmetry, h = floor((m+1)/2): the starting values are +-sqrt of its
eigenvalues, with an exact 0 for even m.  A tridiagonal without the exact
symmetry hands LAPACK T' itself.  Nothing here reads the root, the rotation
or the coefficient triple; the closed form calls no `eigvals`; and the
polish, not LAPACK, sets the final accuracy, so LAPACK's values only have
to lie in each root's basin.  Cost on an n x n tridiagonal: O(n) to
symmetrize and fold, O((n/2)^3) in LAPACK (O(n^3) without the symmetry),
O(n) per eigenvalue and Newton step, and O(n) per state for the residuals.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .solver import GBSParams, GBSSolution, SolutionKind, _tridiagonal, bands, operator_norm

# LAPACK's starting values carry a forward error amplified by the eigenvalue
# condition number; inside a root's basin Newton converges quadratically, so
# two corrections pull them back to ~eps * |T|
_NEWTON_STEPS = 2


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
    """

    oracle_eigenvalues: np.ndarray
    closed_form_eigenvalues: np.ndarray
    pair_bound: float
    residual_bound: float
    pairing: list[tuple[int, int]] = field(default_factory=list)
    max_pair_error: float | None = None
    max_residual: float | None = None
    multiplicity_collapse: bool = False

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


def _lapack_eigvals(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(
            f"LAPACK eigenvalue iteration failed on a {len(a)}x{len(a)} matrix: {exc}"
        ) from exc


def _starting_values(diag, e) -> np.ndarray:
    """LAPACK's eigenvalues of T' = tridiag(e, d, e), from the h x h W where T'
    has the +-lambda symmetry of _folded_square, else from T' itself."""
    if not (np.array_equal(diag[::-1], -diag) and np.array_equal(e[::-1], e)):
        return _lapack_eigvals(_tridiagonal(e, diag, e))
    # T' / 2^s has entries below 1 in modulus, so T'^2's neither overflow
    # nor, unless T' spans half the double range, underflow; 2^s stays normal
    peak = max(np.abs(diag).max(initial=0.0), np.abs(e).max(initial=0.0))
    scale = math.ldexp(1.0, max(int(np.frexp(peak)[1]), -1000))
    root = np.sqrt(_lapack_eigvals(_folded_square(diag / scale, e / scale))) * scale
    return np.concatenate([root, -root, np.zeros(len(diag) % 2)])


def _log_det_derivative(diag, prods, z: np.ndarray) -> np.ndarray:
    """d/dz log det(T - z) = f'_n / f_n at every z, for a tridiagonal T with
    this diagonal and these products sub_i sup_i of its off-diagonals.

    The leading principal minors of T - z obey the continuant
    f_{i+1} = (d_i - z) f_i - sub_{i-1} sup_{i-1} f_{i-1}, f_0 = 1, f_{-1} = 0
    (Wilkinson, The Algebraic Eigenvalue Problem, ch. 7); f' obeys its
    derivative, which adds -f_i.  Both pairs (f, f') in hand are divided after
    each row by their largest modulus: f'/f is unchanged and nothing over- or
    underflows.  No step divides by an off-diagonal entry.  O(n) per z.
    """
    gap = np.subtract.outer(diag, z)
    minus_prods = np.concatenate([[0.0], -prods])
    y = np.zeros((4, len(z)), dtype=complex)
    old, new = y[:2], y[2:]  # (f, f') of minors i - 1 and i
    new[0] = 1.0
    for g, c in zip(gap, minus_prods):
        old *= c  # minor i + 1 overwrites minor i - 1
        old += g * new
        old[1] -= new[0]
        old, new = new, old
        y /= np.abs(y).max(axis=0)
    return new[1] / new[0]


def _newton_polish(diag, prods, eigenvalues: np.ndarray) -> np.ndarray:
    """_NEWTON_STEPS steps z <- z - 1/(d/dz log det(T - z)), all eigenvalues at once.

    A step that is non-finite or larger than 0.5 |T'|_F + 1 is skipped, which
    leaves that value where it was.
    """
    cap = 0.5 * math.hypot(*np.abs(diag), *np.sqrt(2.0 * np.abs(prods))) + 1.0
    z = np.array(eigenvalues, dtype=complex)
    for _ in range(_NEWTON_STEPS):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = -1.0 / _log_det_derivative(diag, prods, z)
        ok = np.isfinite(step) & (np.abs(step) <= cap)
        z[ok] += step[ok]
    return z


def _band_spectrum(sub, diag, sup) -> np.ndarray:
    """All eigenvalues of the tridiagonal with these bands: symmetrize, LAPACK, polish."""
    e, prods = _symmetrized(sub, sup)
    return _newton_polish(diag, prods, _starting_values(diag, e))


def dense_spectrum(op: np.ndarray) -> np.ndarray:
    """All eigenvalues of a tridiagonal complex matrix, with algebraic multiplicity.

    Reads op's three bands, symmetrizes the off-diagonals, takes LAPACK's
    eigenvalues of the folded half-size matrix (of the symmetrized one when
    op lacks the +-lambda symmetry) and polishes them by two Newton steps on
    the continuant.  Raises ValueError for a matrix that is not square,
    finite and tridiagonal, or with an off-diagonal product sub_n sup_n
    beyond the double range, and NonConvergenceError when LAPACK's iteration
    fails; never returns a silently truncated spectrum.
    """
    return _band_spectrum(*_bands(op))


def _greedy_pairing(
    closed: np.ndarray, oracle: np.ndarray
) -> tuple[list[tuple[int, int]], float]:
    """Nearest-neighbor pairing of the two sorted-by-real-part lists."""
    order_c = np.argsort(closed.real + 1e-12 * closed.imag)
    order_o = np.argsort(oracle.real + 1e-12 * oracle.imag)
    used = np.zeros(len(order_o), dtype=bool)
    pairing = []
    max_err = 0.0
    for ci in order_c:
        dist = np.abs(oracle[order_o] - closed[ci])
        dist[used] = np.inf
        j = int(np.argmin(dist))
        used[j] = True
        pairing.append((int(ci), int(order_o[j])))
        max_err = max(max_err, float(dist[j]))
    pairing.sort()
    return pairing, max_err


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
    oracle_vals = _band_spectrum(sub, diag, sup)
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
