"""Independent dense eigensolver used to verify the closed-form pipeline.

Eigenvalues come from the matrix entries alone, in four steps: Householder
reduction to Hessenberg form, a closed-form exact radix-2 balancing of its two
central diagonals, LAPACK's eigenvalues of the result (`np.linalg.eigvals`)
and two Newton steps on det(H - z) for the whole spectrum by Hyman's method.
The cross-check stays genuine: nothing here reads the root, the rotation or
the coefficient triple; the closed form calls no `eigvals` (its rotation is a
real `eigh`); and the hand-written polish, not LAPACK, sets the final
accuracy, so the starting values only have to lie in each root's basin.

Cost on an n x n matrix of upper bandwidth w: O(n^2) to balance, O(n^3) in
LAPACK, O(n^2 w) per Newton step in n row products (w = 1 on L).
"""

from dataclasses import dataclass, field

import numpy as np

from .solver import GBSParams, GBSSolution, SolutionKind, build_operator, operator_norm


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


def _balance(h: np.ndarray) -> np.ndarray:
    """Exact radix-2 similarity D^-1 H D equalizing H's two central diagonals.

    D = diag(2^e), e = rint(cumsum(1/2 log2 |h[i+1,i]| / |h[i,i+1]|)) with
    e_0 = 0 and step 0 where either entry is zero.  Entries scale as
    ldexp(h[i,j], e_j - e_i): nothing rounds and zeros stay zero.  Rounding
    the running sum keeps each e_j - e_i within 1 of exact, so on a
    tridiagonal each |sub| / |super| ends within a factor of 4 of 1.  Closed
    form, no sweeps: L's pairs drift by (|nu|/|mu|)^(m/2) end to end, beyond a
    sweep-capped iterative balancing, and LAPACK then starts too far off.

    Raises ValueError, naming the span max(e) - min(e), when a scaled entry
    leaves the double range; L's balanced entries stay bounded.
    """
    sub = np.abs(np.diagonal(h, -1))
    sup = np.abs(np.diagonal(h, 1))
    both = (sub > 0.0) & (sup > 0.0)
    step = np.zeros(len(sub))
    step[both] = 0.5 * np.log2(sub[both] / sup[both])
    e = np.rint(np.concatenate([[0.0], np.cumsum(step)])).astype(np.int64)
    shift = e[None, :] - e[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        balanced = np.ldexp(h.real, shift) + 1j * np.ldexp(h.imag, shift)
    if not np.all(np.isfinite(balanced)):
        raise ValueError(
            f"balancing exponents span 2^{int(e.max() - e.min())}: the balanced "
            f"{len(e)}x{len(e)} Hessenberg form overflows the double range"
        )
    return balanced


def _hessenberg(a: np.ndarray) -> np.ndarray:
    """Householder reduction to upper Hessenberg form.

    A column already zero below its subdiagonal is left alone: reflecting it
    would only apply a phase and add rounding fill.  A matrix that is already
    Hessenberg (a tridiagonal L among them) therefore comes back bit for bit.
    """
    h = np.array(a, dtype=complex, copy=True)
    n = h.shape[0]
    for c in range(n - 2):
        if not np.any(h[c + 2:, c]):
            continue
        x = h[c + 1:, c]
        nx = np.linalg.norm(x)
        if nx == 0.0:  # entries so small that their squares underflow
            continue
        v = x.copy()
        phase = x[0] / abs(x[0]) if abs(x[0]) > 0.0 else 1.0
        v[0] += phase * nx
        v = v / np.linalg.norm(v)
        h[c + 1:, c:] -= 2.0 * np.outer(v, v.conj() @ h[c + 1:, c:])
        h[:, c + 1:] -= 2.0 * np.outer(h[:, c + 1:] @ v, v.conj())
        h[c + 2:, c] = 0.0
    return h


def _log_det_derivative(h: np.ndarray, z: np.ndarray) -> np.ndarray:
    """d/dz log det(H - z) = -tr((H - z)^-1) at every z, for upper Hessenberg H.

    Hyman's method (Wilkinson, The Algebraic Eigenvalue Problem, ch. 7): on a
    block with nonzero subdiagonal, back-substitute (H - z) x = alpha e_1 with
    x_last = 1 from the bottom row up, carrying x' = dx/dz alongside.  Then
    det(H - z) is alpha(z) times a constant, and the log-derivative is
    alpha'/alpha.  Each row is one (row x eigenvalues) product over x and x'
    stacked side by side; the pair is rescaled together whenever its new row
    exceeds 1, which leaves alpha'/alpha unchanged and keeps every entry <= 1.
    H splits into diagonal blocks at exactly-zero subdiagonals, and the
    blocks' log-derivatives add up.  For upper bandwidth w, row i reads only
    x[i .. i+w], so each product and rescale touches those rows alone (later
    rows are never read again): O(n w) per z.
    """
    n = h.shape[0]
    k = len(z)
    zz = np.concatenate([z, z])
    rows, cols = np.nonzero(h)
    w = int((cols - rows).max(initial=0))
    total = np.zeros(k, dtype=complex)
    cuts = [0, *(np.flatnonzero(np.diagonal(h, -1) == 0) + 1), n]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        b = h[lo:hi, lo:hi]
        # columns :k hold x, columns k: hold x'
        y = np.zeros((hi - lo, 2 * k), dtype=complex)
        y[-1, :k] = 1.0
        for i in range(hi - lo - 1, 0, -1):
            t = b[i, i:i + w + 1] @ y[i:i + w + 1] - zz * y[i]
            t[k:] -= y[i, :k]
            y[i - 1] = t / -b[i, i - 1]
            scale = np.maximum(np.maximum(np.abs(y[i - 1, :k]), np.abs(y[i - 1, k:])), 1.0)
            y[i - 1:i + w] /= np.concatenate([scale, scale])
        t = b[0, :w + 1] @ y[:w + 1] - zz * y[0]
        t[k:] -= y[0, :k]
        total += t[k:] / t[:k]
    return total


def _newton_polish(h: np.ndarray, eigenvalues: np.ndarray, steps: int = 2) -> np.ndarray:
    """Newton steps on det(H - z) for all eigenvalues at once.

    z <- z - 1/(d/dz log det(H - z)), with the log-derivative evaluated by
    Hyman's method on the Hessenberg form (O(n w) per eigenvalue for upper
    bandwidth w).  The starting values carry a forward error amplified by the
    eigenvalue condition number; one or two quadratically convergent
    corrections pull them back to ~eps * |H|.  A step that is non-finite or
    larger than 0.5 |H|_F + 1 is skipped, which leaves that value where it
    was.
    """
    cap = 0.5 * np.linalg.norm(h) + 1.0
    z = np.array(eigenvalues, dtype=complex)
    for _ in range(steps):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = -1.0 / _log_det_derivative(h, z)
        ok = np.isfinite(step) & (np.abs(step) <= cap)
        z[ok] += step[ok]
    return z


def dense_spectrum(op: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense complex matrix, with algebraic multiplicity.

    Hessenberg form, the closed-form balancing, LAPACK's eigenvalues of the
    result and two Hyman-Newton steps on it.  Raises NonConvergenceError when
    LAPACK's iteration fails, and ValueError when the balancing exponents
    span more than the double range; never returns a silently truncated
    spectrum.
    """
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"dense_spectrum needs a square matrix, got shape {op.shape}")
    if not np.all(np.isfinite(op)):
        raise ValueError("dense_spectrum needs finite entries")
    n = op.shape[0]
    if n == 0:
        return np.array([], dtype=complex)
    h = _balance(_hessenberg(op))
    try:
        values = np.linalg.eigvals(h)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(
            f"LAPACK eigenvalue iteration failed on a {n}x{n} matrix: {exc}"
        ) from exc
    return _newton_polish(h, values)


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
    """Check a closed-form solution against this module's eigensolver.

    Pairs the two eigenvalue lists and records the worst pair distance and
    the worst eigenstate residual |L v - lambda v|, with the bounds each must
    meet.  A defective solution is flagged as a multiplicity collapse instead
    of being force-paired.
    """
    if solution.params != p:
        raise ValueError("solution was produced from different parameters")
    op = build_operator(p)
    oracle_vals = dense_spectrum(op)
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
    states = np.column_stack(solution.eigenstates)
    lam = 0.0 if report.multiplicity_collapse else closed_vals
    report.max_residual = float(np.linalg.norm(op @ states - states * lam, axis=0).max())
    return report
