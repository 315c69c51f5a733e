"""Independent eigensolver on L's three bands, used to verify the closed form.

compare takes L's sub-, main and superdiagonal from the parameters
(solver.bands) and never builds L; dense_spectrum reads them off a matrix.
Then: an exact radix-2 balancing of the two off-diagonals, LAPACK's
eigenvalues of the balanced matrix (`np.linalg.eigvals`) as starting values,
and two Newton steps on det(L - z), by the three-term continuant of its
leading minors.  Nothing here reads the root, the rotation or the coefficient
triple; the closed form calls no `eigvals`; and the polish, not LAPACK, sets
the final accuracy, so LAPACK's values only have to lie in each root's basin.
Cost on an n x n tridiagonal: O(n) to balance, O(n^3) in LAPACK, O(n) per
eigenvalue and Newton step, and O(n) per state for the residuals.
"""

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


def _balance(sub: np.ndarray, sup: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The off-diagonals of D^-1 T D, the exact radix-2 similarity equalizing them.

    D = diag(2^e), e = rint(cumsum(1/2 log2 |sub_i| / |sup_i|)) with e_0 = 0
    and step 0 where either entry is zero.  With s = diff(e) the subdiagonal
    scales by 2^-s and the superdiagonal by 2^s: nothing rounds, zeros stay
    zero, and each |sub| / |sup| ends within a factor of 4 of 1.  Closed form,
    no sweeps: L's pairs drift by (|nu|/|mu|)^(m/2) end to end, beyond a
    sweep-capped iterative balancing, and LAPACK then starts too far off.
    Raises ValueError, naming the span max(e) - min(e), when a scaled entry
    leaves the double range; L's balanced entries stay bounded.
    """
    a, b = np.abs(sub), np.abs(sup)
    both = (a > 0.0) & (b > 0.0)
    step = np.zeros(len(a))
    step[both] = 0.5 * np.log2(a[both] / b[both])
    e = np.rint(np.concatenate([[0.0], np.cumsum(step)])).astype(np.int64)
    shift = np.diff(e) * np.array([[-1], [1]])
    pair = np.array([sub, sup])
    with np.errstate(over="ignore", invalid="ignore"):
        balanced = np.ldexp(pair.real, shift) + 1j * np.ldexp(pair.imag, shift)
    if not np.all(np.isfinite(balanced)):
        raise ValueError(
            f"balancing exponents span 2^{int(e.max() - e.min())}: the balanced "
            f"{len(e)}x{len(e)} tridiagonal overflows the double range"
        )
    return balanced[0], balanced[1]


def _log_det_derivative(sub, diag, sup, z: np.ndarray) -> np.ndarray:
    """d/dz log det(T - z) = f'_n / f_n at every z, for the tridiagonal T.

    The leading principal minors of T - z obey the continuant
    f_{i+1} = (d_i - z) f_i - sub_{i-1} sup_{i-1} f_{i-1}, f_0 = 1, f_{-1} = 0
    (Wilkinson, The Algebraic Eigenvalue Problem, ch. 7); f' obeys its
    derivative, which adds -f_i.  Both pairs (f, f') in hand are divided after
    each row by their largest modulus: f'/f is unchanged and nothing over- or
    underflows.  No step divides by an off-diagonal entry.  O(n) per z.
    """
    gap = np.subtract.outer(diag, z)
    minus_prods = np.concatenate([[0.0], -(sub * sup)])
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


def _newton_polish(sub, diag, sup, eigenvalues: np.ndarray) -> np.ndarray:
    """_NEWTON_STEPS steps z <- z - 1/(d/dz log det(T - z)), all eigenvalues at once.

    A step that is non-finite or larger than 0.5 |T|_F + 1 is skipped, which
    leaves that value where it was.
    """
    cap = 0.5 * np.linalg.norm(np.concatenate([sub, diag, sup])) + 1.0
    z = np.array(eigenvalues, dtype=complex)
    for _ in range(_NEWTON_STEPS):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = -1.0 / _log_det_derivative(sub, diag, sup, z)
        ok = np.isfinite(step) & (np.abs(step) <= cap)
        z[ok] += step[ok]
    return z


def _band_spectrum(sub, diag, sup) -> np.ndarray:
    """All eigenvalues of the tridiagonal with these bands: balance, LAPACK, polish."""
    sub, sup = _balance(sub, sup)
    try:
        values = np.linalg.eigvals(_tridiagonal(sub, diag, sup))
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(
            f"LAPACK eigenvalue iteration failed on a {len(diag)}x{len(diag)} matrix: {exc}"
        ) from exc
    return _newton_polish(sub, diag, sup, values)


def dense_spectrum(op: np.ndarray) -> np.ndarray:
    """All eigenvalues of a tridiagonal complex matrix, with algebraic multiplicity.

    Reads op's three bands: the closed-form balancing, LAPACK's eigenvalues
    of the balanced matrix and two Newton steps on the continuant.  Raises
    ValueError for a matrix that is not square, finite and tridiagonal, or
    whose balancing leaves the double range, and NonConvergenceError when
    LAPACK's iteration fails; never returns a silently truncated spectrum.
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
    states = np.array(solution.eigenstates)
    res = (diag - (0.0 if report.multiplicity_collapse else closed_vals[:, None])) * states
    res[:, 1:] += sub * states[:, :-1]
    res[:, :-1] += sup * states[:, 1:]
    report.max_residual = float(np.linalg.norm(res, axis=1).max())
    return report
