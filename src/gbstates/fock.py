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

import math
import numbers

import numpy as np

# the most complex amplitudes one state or block of states may hold: 2^26, 1 GiB
AMPLITUDE_CAP = 2**26

# 2 pi in three parts (Cody & Waite, 1980), summing to 2 pi within 6e-33:
# the first, a multiple of 2^-24, carries 27 significant bits and the
# second, a multiple of 2^-51, 24, so j * part is exact for every integer
# |j| <= 2^26
_TWO_PI = (float.fromhex("0x1.921fb54p+2"), float.fromhex("0x1.10b462p-28"),
           float.fromhex("-0x1.cb3b399d747f2p-53"))
_INV_TWO_PI = 1.0 / (2.0 * math.pi)
# the grid of a ramp's hi part: an angle below 4 in modulus rounds onto it
# with at most 27 significant bits, so n * hi is exact for n < AMPLITUDE_CAP
_RAMP_GRID = 2.0**25
# _unit_scaled leaves a vector as it is while its largest modulus lies in
# [_UNSCALED_LOW, _UNSCALED_HIGH)
_UNSCALED_LOW, _UNSCALED_HIGH = 2.0**-201, 2.0**200


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


def _reduced(x, j):
    """x - 2 pi j as head + tail, for j = rint(x / 2 pi), a float or an
    array: |head| is at most about pi, |tail| below 2^-26 |j| / 2^26, and
    the pair holds x - 2 pi j within 2^-78 while |j| <= 2^26.

    head takes no rounding there: both subtrahends are exact, and the
    differences, multiples of 2^-51 below 4 in modulus (x is either such a
    multiple itself or below pi, with j = 0), fit a double.
    """
    return (x - j * _TWO_PI[0]) - j * _TWO_PI[1], j * -_TWO_PI[2]


def phase_ramp(theta: float, n) -> np.ndarray:
    """e^{i n theta} for an integer array n with 0 <= n < AMPLITUDE_CAP, or
    for n = 0..n-1 when n is an int count, at most AMPLITUDE_CAP.

    The one rule for every phase ramp of the package.  exp of the rounded
    n theta errs by half an ulp of n theta, 2.3e-13 at n = 1000 near
    theta = pi; this ramp stays within about 5e-16 of the exact one.  theta
    is first reduced to head + tail, head in about [-pi, pi], with 2 pi in
    three parts (Cody & Waite, 1980), in Python floats.  head splits into
    hi, on a grid of 2^-25, and lo: n hi is exact for every allowed n, and
    is reduced the same way; n (lo + tail), below 1 in modulus, is added
    last.  The reduction of theta itself is exact while
    |theta| <= 2^26 2 pi (4.2e8); past that it rounds, within about an ulp
    of theta.  A count is checked as one integer, an array entry by entry.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"ramp angle must be finite, got {theta!r}")
    if isinstance(n, numbers.Integral):
        if not 0 <= n <= AMPLITUDE_CAP:
            raise ValueError(f"ramp length must lie in [0, {AMPLITUDE_CAP}], got {n!r}")
        n = np.arange(n, dtype=float)
    else:
        n = np.asarray(n)
        if n.dtype.kind not in "iu" or n.size and not (n.min() >= 0 and n.max() < AMPLITUDE_CAP):
            raise ValueError(f"ramp indices must be integers in [0, {AMPLITUDE_CAP})")
        n = n.astype(float)  # exact; the products below then take no cast
    head, tail = _reduced(theta, round(theta * _INV_TWO_PI))
    hi = round(head * _RAMP_GRID) / _RAMP_GRID
    lo = (head - hi) + tail
    x = n * hi
    head, tail = _reduced(x, np.rint(x * _INV_TWO_PI))
    return np.exp(1j * (head + (n * lo + tail)))


def _unit_scaled(v, big=None) -> np.ndarray:
    """v, with its largest modulus big (found here when not given) outside
    [2^-201, 2^200) taken into [0.5, 1) by an exact power of two,
    normalize_rows' rule.

    Inside that range the square of the largest modulus, and the product of
    four norms of vectors within AMPLITUDE_CAP, are normal doubles: v is
    returned as it is, and fidelity and photon_statistics keep their bits.  Outside it, no
    square of the scaled copy overflows and none that counts underflows.
    """
    v = np.asarray(v)
    if big is None:
        big = np.abs(v).max(initial=0.0)
    if _UNSCALED_LOW <= big < _UNSCALED_HIGH or big == 0.0:
        return v
    shift = -math.frexp(big)[1]
    if not np.iscomplexobj(v):
        return np.ldexp(v, shift)
    out = np.empty_like(v)
    np.ldexp(v.real, shift, out=out.real)
    np.ldexp(v.imag, shift, out=out.imag)
    return out


def fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|<u|v>|^2 / (|u|^2 |v|^2); symmetric and phase-invariant, in [0, 1].

    A vector whose largest modulus lies outside [2^-201, 2^200) is first
    scaled by the exact power of two at that modulus (_unit_scaled), so
    moduli whose squares leave the double range give a value too.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    u, v = _unit_scaled(u), _unit_scaled(v)
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
    about 1e-4: at (mu, nu, eta, m) = (1, 0.3i, 0.4, 1000) eigenstate and
    eigenstate_sum agree up to a global phase within 2.3e-13 but differ
    termwise by 0.042 (k = 917).  Compare such states up to phase, e.g. with
    fidelity().

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
    if not _UNSCALED_LOW <= big < _UNSCALED_HIGH:
        # numpy's complex division by big forms 1/big, which overflows for a
        # subnormal big and is itself subnormal near the top of the range:
        # the state takes its exact power of two first
        v = _unit_scaled(v, big)
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
