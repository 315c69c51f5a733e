"""Independent dense eigensolver used to verify the closed-form pipeline.

Nothing here touches the solver's formulas: eigenvalues come from balancing,
Householder reduction to Hessenberg form and shifted QR iteration with
deflation, then two Newton steps on det(H - z) for the whole spectrum at once.
Self-contained on purpose, so agreement with the closed form is a genuine
cross-check.

Cost on an n x n matrix: each QR sweep applies its Givens rotations as one
2x2 product per row pair and one per column pair, O(n) numpy calls per
sweep; each Newton step evaluates d/dz log det(H - z) for all n eigenvalues
by Hyman's back-substitution, n row products of size (row x 2n), O(n^3)
flops in all.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .solver import GBSParams, GBSSolution, SolutionKind, build_operator, operator_norm

_EPS = float(np.finfo(float).eps)


class NonConvergenceError(RuntimeError):
    """QR iteration hit its cap without deflating the whole matrix."""


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


def _balance(a: np.ndarray, sweeps: int = 50) -> np.ndarray:
    """Osborne balancing with radix-2 scaling (an exact similarity).

    Equalizes row and column norms; for strongly non-normal inputs this is
    what keeps the QR eigenvalues accurate to ~1e-12 instead of ~1e-9.
    """
    h = np.array(a, dtype=complex, copy=True)
    n = h.shape[0]
    for _ in range(sweeps):
        converged = True
        for i in range(n):
            r = np.abs(h[i, :]).sum() - abs(h[i, i])
            c = np.abs(h[:, i]).sum() - abs(h[i, i])
            if r == 0.0 or c == 0.0:
                continue
            f = 1.0
            while c < r / 2.0:
                c *= 2.0
                r /= 2.0
                f *= 2.0
            while c >= r * 2.0:
                c /= 2.0
                r *= 2.0
                f /= 2.0
            if f != 1.0:
                converged = False
                h[:, i] *= f
                h[i, :] /= f
        if converged:
            break
    return h


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


def _givens(f: complex, g: complex) -> np.ndarray:
    """Rotation [[c, s], [-conj(s), c]] (c real) sending (f, g) to (r, 0).

    f and g are Python complex scalars, which keep this once-per-rotation
    arithmetic cheap.
    """
    if g == 0:
        c, s = 1.0, 0.0j
    elif f == 0:
        c, s = 0.0, g.conjugate() / abs(g)
    else:
        af = abs(f)
        hyp = math.hypot(af, abs(g))
        c, s = af / hyp, (f / af) * g.conjugate() / hyp
    return np.array([[c, s], [-s.conjugate(), c]], dtype=complex)


def _eig22(a: complex, b: complex, c: complex, d: complex) -> tuple[complex, complex]:
    t = (a + d) / 2.0
    disc = cmath.sqrt(((a - d) / 2.0) ** 2 + b * c)
    return t + disc, t - disc


def _qr_eigenvalues(h: np.ndarray, max_iters: int) -> np.ndarray:
    """Shifted QR with deflation on an upper Hessenberg matrix.

    Wilkinson-style shifts from the trailing 2x2 of the active block, an
    ad hoc exceptional shift every 15 stalled sweeps, and explicit Givens
    QR steps restricted to the active window (only eigenvalues are needed,
    so the off-window blocks can be ignored once the window decouples).
    """
    h = np.array(h, dtype=complex, copy=True)
    n = h.shape[0]
    eig: list[complex] = []
    hi = n
    iters = 0
    stalled = 0
    while hi > 0:
        if hi == 1:
            eig.append(h[0, 0])
            break
        lo = hi - 1
        while lo > 0:
            if abs(h[lo, lo - 1]) <= _EPS * (abs(h[lo - 1, lo - 1]) + abs(h[lo, lo])):
                h[lo, lo - 1] = 0.0
                break
            lo -= 1
        if lo == hi - 1:
            eig.append(h[hi - 1, hi - 1])
            hi -= 1
            stalled = 0
            continue
        if lo == hi - 2:
            eig.extend(_eig22(h[lo, lo], h[lo, lo + 1], h[lo + 1, lo], h[lo + 1, lo + 1]))
            hi -= 2
            stalled = 0
            continue
        iters += 1
        stalled += 1
        if iters > max_iters:
            raise NonConvergenceError(
                f"QR iteration exceeded {max_iters} sweeps on a {n}x{n} matrix"
            )
        if stalled % 15 == 0:
            sigma = h[hi - 1, hi - 1] + 0.75 * abs(h[hi - 1, hi - 2])
        else:
            l1, l2 = _eig22(
                h[hi - 2, hi - 2], h[hi - 2, hi - 1], h[hi - 1, hi - 2], h[hi - 1, hi - 1]
            )
            corner = h[hi - 1, hi - 1]
            sigma = l1 if abs(l1 - corner) <= abs(l2 - corner) else l2
        w = h[lo:hi, lo:hi]
        m = hi - lo
        idx = np.arange(m)
        w[idx, idx] -= sigma
        rotations = []
        for i in range(m - 1):
            f, g = w[i:i + 2, i].tolist()
            rot = _givens(f, g)
            rotations.append(rot)
            w[i:i + 2, i:] = rot @ w[i:i + 2, i:]
        for i, rot in enumerate(rotations):
            top = min(i + 2, m)
            w[:top, i:i + 2] = w[:top, i:i + 2] @ rot.conj().T
        w[idx, idx] += sigma
    return np.array(eig, dtype=complex)


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
    blocks' log-derivatives add up.  O(n^2) per z.
    """
    n = h.shape[0]
    k = len(z)
    zz = np.concatenate([z, z])
    total = np.zeros(k, dtype=complex)
    cuts = [0, *(np.flatnonzero(np.diagonal(h, -1) == 0) + 1), n]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        b = h[lo:hi, lo:hi]
        # columns :k hold x, columns k: hold x'
        y = np.zeros((hi - lo, 2 * k), dtype=complex)
        y[-1, :k] = 1.0
        for i in range(hi - lo - 1, 0, -1):
            t = b[i, i:] @ y[i:] - zz * y[i]
            t[k:] -= y[i, :k]
            y[i - 1] = t / -b[i, i - 1]
            scale = np.maximum(np.maximum(np.abs(y[i - 1, :k]), np.abs(y[i - 1, k:])), 1.0)
            y[i - 1:] /= np.concatenate([scale, scale])
        t = b[0] @ y - zz * y[0]
        t[k:] -= y[0, :k]
        total += t[k:] / t[:k]
    return total


def _newton_polish(h: np.ndarray, eigenvalues: np.ndarray, steps: int = 2) -> np.ndarray:
    """Newton steps on det(H - z) for all eigenvalues at once.

    z <- z - 1/(d/dz log det(H - z)), with the log-derivative evaluated by
    Hyman's method on the Hessenberg form (O(n^2) per eigenvalue, O(n^3) per
    step for the whole spectrum).  The QR values carry a forward error
    amplified by the eigenvalue condition number; one or two quadratically
    convergent corrections pull them back to ~eps * |H|.  A step that is
    non-finite or larger than 0.5 |H|_F + 1 is skipped, which leaves that
    value where it was.
    """
    cap = 0.5 * np.linalg.norm(h) + 1.0
    z = np.array(eigenvalues, dtype=complex)
    for _ in range(steps):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = -1.0 / _log_det_derivative(h, z)
        ok = np.isfinite(step) & (np.abs(step) <= cap)
        z[ok] += step[ok]
    return z


def dense_spectrum(op: np.ndarray, max_iters: int | None = None) -> np.ndarray:
    """All eigenvalues of a dense complex matrix, with algebraic multiplicity.

    Raises NonConvergenceError if the QR sweep cap (default 100 per
    dimension) is hit; never returns a silently truncated spectrum.
    """
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"dense_spectrum needs a square matrix, got shape {op.shape}")
    if not np.all(np.isfinite(op)):
        raise ValueError("dense_spectrum needs finite entries")
    n = op.shape[0]
    if n == 0:
        return np.array([], dtype=complex)
    if n == 1:
        return op[0, :1].astype(complex)
    if max_iters is None:
        max_iters = 100 * n
    h = _hessenberg(_balance(op))
    return _newton_polish(h, _qr_eigenvalues(h, max_iters))


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
