"""Truncated Fock-space kernel: the photon cap, the su(2) hop, states and fidelity.

Everything lives on the (M+1)-dimensional space spanned by the number states
|0>, ..., |M>: states are complex 1-d numpy arrays, and no function mutates
its inputs but normalize_rows, which the solver calls on blocks of states it
owns.  check_photon_cap is the one rule for M, which every parameter
record and basis_state apply before they allocate: an integer >= 0 whose M+1
amplitudes fit AMPLITUDE_CAP.  hop_squares is the one source of the
Holstein-Primakoff hop sqrt((n+1)(m-n)) that J+ = sqrt(m-N) a and
J- = a^dag sqrt(m-N) share: every band of L, of D(zeta)'s generator and of
verify's su(2) check reads it.
"""

import numbers

import numpy as np

# the most complex amplitudes one state or block of states may hold: 2^26, 1 GiB
AMPLITUDE_CAP = 2**26

_SMALLEST_NORMAL = float(np.finfo(float).tiny)


def check_photon_cap(m) -> None:
    """Raise ValueError unless m is an integer >= 0 with m + 1 <= AMPLITUDE_CAP."""
    if not isinstance(m, numbers.Integral) or m < 0:
        raise ValueError(f"photon cap must be an integer >= 0, got {m!r}")
    if m + 1 > AMPLITUDE_CAP:
        raise ValueError(f"photon cap m = {m} needs {m + 1} amplitudes per state, above the cap {AMPLITUDE_CAP}")


def hop_squares(m: int) -> np.ndarray:
    """(n+1)(m-n) for n = 0..m-1, formed on the integers, as doubles.

    J+ moves |n+1> to |n> with sqrt of entry n, and J- is its transpose.  The
    values stay below 2^51 under AMPLITUDE_CAP, so every double is exact.
    """
    n = np.arange(1, m + 1)
    return (n * (m + 1 - n)).astype(float)


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


def basis_state(n: int, dim: int) -> np.ndarray:
    """Number state |n> as a dim-long amplitude vector; dim - 1 is a photon cap."""
    check_photon_cap(dim - 1)
    if not isinstance(n, numbers.Integral) or not 0 <= n < dim:
        raise ValueError(f"basis index must be an integer in [0, {dim}), got {n!r}")
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
        return normalize_rows(v.copy(order="C"))
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
    # the squared norm as np.linalg.norm sums a complex vector, without its
    # per-call checks: the forms normalize one small state per call
    u = u / np.sqrt(u.real.dot(u.real) + u.imag.dot(u.imag))
    lead = int((mags > 1e-12 * big).argmax())
    phase = u[lead] / abs(u[lead])
    u = u / phase
    u[lead] = abs(u[lead])  # drop the ~1 ulp residual imaginary part
    return u


def normalize_rows(u: np.ndarray) -> np.ndarray:
    """normalize_state of a 2-d stack, in place, for a caller that owns the
    block: u is complex with contiguous rows, and is returned."""
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
