"""Truncated Fock-space kernel: states, fidelity and the dense su(2) generators.

Everything lives on the (M+1)-dimensional space spanned by the number states
|0>, ..., |M>: states are complex 1-d numpy arrays, operators dense complex
2-d arrays, and no function mutates its inputs.  The dense su(2) generators
are references for the tests and verify's su(2) check; the solver and the
oracle read L's entries from solver.bands.  The generators satisfy their
algebra exactly at every M.
"""

import math

import numpy as np

# the most complex amplitudes one state or block of states may hold: 2^26, 1 GiB
AMPLITUDE_CAP = 2**26

_SMALLEST_NORMAL = float(np.finfo(float).tiny)


def hp_generators(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Holstein-Primakoff su(2) generators (J0, J+, J-) on dim m+1.

    J0 = m/2 - N,  J+ = sqrt(m-N) a,  J- = a^dag sqrt(m-N).  J+ moves |n+1>
    to |n> with matrix element sqrt((n+1)(m-n)); |0> is the highest-weight
    state.  The products (n+1)(m-n) are formed in exact integer arithmetic
    before the square root, which keeps the su(2) commutators at the 1e-13
    level up to m ~ 40.
    """
    if m < 0:
        raise ValueError(f"photon cap must be >= 0, got {m}")
    n = np.arange(m + 1)
    j0 = np.diag(m / 2 - n).astype(complex)
    jp = np.zeros((m + 1, m + 1), dtype=complex)
    for k in range(m):
        jp[k, k + 1] = math.sqrt((k + 1) * (m - k))
    return j0, jp, jp.conj().T


def fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|<u|v>|^2 / (|u|^2 |v|^2); symmetric and phase-invariant, in [0, 1]."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("fidelity is undefined for a zero vector")
    f = abs(np.vdot(u, v)) ** 2 / (nu * nu * nv * nv)
    return float(min(f, 1.0))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def basis_state(n: int, dim: int) -> np.ndarray:
    """Number state |n> as a dim-long amplitude vector."""
    if not 0 <= n < dim:
        raise ValueError(f"basis index {n} outside [0, {dim})")
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return v


def normalize_state(v: np.ndarray) -> np.ndarray:
    """Unit 2-norm with the first significant amplitude made real positive.

    This fixes the free global phase the same way everywhere in the package.
    The reference is the first amplitude above 1e-12 of the largest, so the
    phase is only as accurate as that entry.  At small m it is a large
    amplitude and states from different construction routes compare
    termwise.  At large m it can be an entry with a relative rounding of
    about 1e-4: at (mu, nu, eta, m) = (1, 0.3i, 0.4, 1000) two routes agree up
    to a global phase within 3.1e-14 but differ termwise by 0.038.  Compare
    such states up to phase, e.g. with fidelity().

    A 2-d array is a stack of states, one per row, each normalized on its
    own with the same rule and no complex division: an exact power of two
    takes the row's largest modulus into [0.5, 1), where no square
    overflows and none that counts underflows; the norm is summed from the
    squared moduli of the scaled entries, and one complex multiply by
    conj(lead / |lead|) / norm turns and scales the row.  Every step is then
    elementwise or a reduction along one contiguous row, so a row gets the
    same bits alone as in a stack; the 1-d path keeps its fewer, cheaper
    calls for single states.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim == 2:
        return _normalize_rows(v)
    mags = np.abs(v)
    big = mags.max()
    if big == 0.0:
        raise ValueError("cannot normalize the zero vector")
    if big < _SMALLEST_NORMAL:
        # numpy's complex division by big forms 1/big, which overflows for a
        # subnormal big: lift the state by an exact power of two first
        v = v * 2.0**600
        mags = np.abs(v)
        big = mags.max()
    # scale by the largest magnitude first: the squared norm of a vector with
    # entries above ~1e154 would overflow
    u = v / big
    u = u / np.linalg.norm(u)
    lead = int(np.nonzero(mags > 1e-12 * big)[0][0])
    phase = u[lead] / abs(u[lead])
    u = u / phase
    u[lead] = abs(u[lead])  # drop the ~1 ulp residual imaginary part
    return u


def _normalize_rows(v: np.ndarray) -> np.ndarray:
    u = np.array(v, order="C")  # a copy, normalized in place
    mags = np.abs(u)
    big = mags.max(axis=1, keepdims=True)
    if not big.all():
        raise ValueError("cannot normalize the zero vector")
    lead = (np.arange(len(u)), (mags > 1e-12 * big).argmax(axis=1))
    shift = -np.frexp(big)[1]
    parts = u.view(float)
    np.ldexp(parts, shift, out=parts)
    np.abs(u, out=mags)
    norm = np.sqrt(np.add.reduce(np.multiply(mags, mags, out=mags), axis=1))
    top = u[lead]
    u *= (top.conj() / (np.abs(top) * norm))[:, None]
    u[lead] = np.abs(u[lead])
    return u
