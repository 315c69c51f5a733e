"""SU(2) displacement operators D(zeta) = exp(zeta J+ - zeta* J-).

D(zeta) = exp(-iH) is a spin-m/2 Wigner rotation; H = i(zeta J+ - zeta* J-)
is r Q X Q^dag with Q a diagonal phase and X = J+ + J- real with eigenvalues
2k - m.  The reflection |n> -> |m-n> commutes with X and splits it into two
half-size real blocks; the parity (-1)^N anticommutes with X, which maps one
block onto the other for odd m and makes each block a bipartite
[[0, C], [C^T, 0]] for even m.  So one half-size eigh (odd m) or one batched
quarter-size SVD (even m) gives D exactly unitary.  D(zeta) lifts the 2x2
unitary w^-1/2 [[1, delta*], [-delta, 1]], delta = e^{-i theta} tan r, w = 1 + |delta|^2, which the solver takes as a
Schur basis of its 2x2 matrix.  The module also covers the disentangled
(normal-ordered) product form, evaluated in exact integer arithmetic as an
independent cross-check that never calls `displacement()` or `eigh`.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .fock import AMPLITUDE_CAP, check_photon_cap, hop_squares, phase_ramp

_QUARTER_TURNS = np.array([1.0, -1.0j, -1.0, 1.0j])  # (-i)^n at n mod 4


@dataclass(frozen=True)
class DisplacementParams:
    """Rotation magnitude r >= 0, phase theta in (-pi, pi], photon cap m.

    zeta = r e^{i theta}.  Parameters produced from a constraint root always
    satisfy r < pi/2 (r is an arctangent there), but direct construction with
    larger r is allowed.
    """

    r: float
    theta: float
    m: int

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r >= 0):
            raise ValueError(f"rotation magnitude must be finite and >= 0, got {self.r}")
        if not -math.pi < self.theta <= math.pi:
            raise ValueError(f"phase must lie in (-pi, pi], got {self.theta}")
        check_photon_cap(self.m)

    @property
    def zeta(self) -> complex:
        return self.r * complex(math.cos(self.theta), math.sin(self.theta))


def delta_to_zeta(delta: complex, m: int) -> DisplacementParams:
    """Invert delta = e^{-i theta} tan r for the rotation parameters.

    r = arctan|delta| lands in [0, pi/2); theta = -arg(delta) on the branch
    (-pi, pi], with theta = 0 when delta vanishes.
    """
    delta = complex(delta)
    r = math.atan(abs(delta))
    if delta == 0:
        theta = 0.0
    else:
        theta = -math.atan2(delta.imag, delta.real)
        if theta <= -math.pi:
            theta = math.pi
    return DisplacementParams(r=r, theta=theta, m=m)


def displacement(p: DisplacementParams) -> np.ndarray:
    """Unitary D(zeta) = exp(-iH) on dim m+1, from one half- or quarter-size real factorization.

    H = i(zeta J+ - zeta* J-) = r Q X Q^dag with Q = diag(e^{-i n (theta + pi/2)})
    and X = J+ + J- real, symmetric, tridiagonal and a function of m alone,
    so D = Q (cos(rX) - i sin(rX)) Q^dag.  Q is the ramp e^{-i n theta} of
    fock.phase_ramp times the exact quarter turns (-i)^n.

    The reflection R|n> = |m-n> commutes with X.  On the basis
    (|n> +- |m-n>)/sqrt(2), n < h = (m+1)//2, X splits into an even and an odd
    real tridiagonal block, each with the off-diagonals sqrt((n+1)(m-n)) of X.
    The parity Z = (-1)^N anticommutes with X, since X moves n by one; that
    halves the work that remains on the blocks.

    Odd m: the central pair adds +-(m+1)/2 to the last diagonal entry of each
    block, so X_odd = -S X_even S with S = diag((-1)^i).  One eigh of the even
    block, with its exact eigenvalues lambda = rint(w) = 2k - m, gives
    E_even = V cos(r lambda) V^T - i V sin(r lambda) V^T, and
    E_odd = exp(ir S X_even S) = S conj(E_even) S.

    Even m: |m/2> joins the even block, coupled to its last pair by
    sqrt(2) sqrt((m/2)(m/2+1)), and the odd block is padded with one idle row,
    so both have size s = m//2 + 1 and a zero diagonal.  On its even and odd
    rows each block is [[0, C], [C^T, 0]], with C lower bidiagonal,
    ceil(s/2) x floor(s/2), read straight off the block's off-diagonals
    (Golub & Kahan, 1965).  LAPACK gets B = C^T, with a zero column appended
    to C when s is odd: square and upper bidiagonal, so its reduction to
    bidiagonal form is exact.  One batched SVD B = W Sigma U^T of both
    blocks, with Sigma rounded to the exact |2k - m|, gives
    E = [[U cos(r Sigma) U^T, -i U sin(r Sigma) W^T],
         [-i W sin(r Sigma) U^T, W cos(r Sigma) W^T]].
    The padding adds the singular value 0, whose U vector spans C^T's null
    space and takes cos 0 = 1; its W vector lives on the padding's row,
    which is never read.

    Then for i, j < h the real-frame entries are (E_even +- E_odd)[i, j] / 2
    at (i, j) and (i, m-j), the bottom half follows from D[m-i, m-j] = D[i, j],
    and for even m the centre row and column are E_even's last row divided
    by sqrt(2).

    Cost: one eigh and two gemm of size m/2 for odd m; one batched SVD and
    three batched gemm of size about m/4 for even m; plus O(m^2) copies and
    the phases.  Raises ValueError, before it allocates, when the (m+1)^2
    entries would exceed fock.AMPLITUDE_CAP, i.e. for m >= 8192.
    """
    size = (p.m + 1) * (p.m + 1)
    if size > AMPLITUDE_CAP:
        raise ValueError(f"D(zeta) at m = {p.m} needs {size} amplitudes, above the cap {AMPLITUDE_CAP}")
    if p.r == 0.0 or p.m == 0:
        # at m = 0 the generators vanish, and there is no pair to index
        return np.eye(p.m + 1, dtype=complex)
    m = p.m
    h = (m + 1) // 2
    s = m // 2 + 1
    # the block's sub-diagonal: X's first s - 1 entries, the su(2) hops
    off = np.sqrt(hop_squares(m)[: s - 1])
    if m % 2:
        x = np.zeros((h, h))
        # eigh reads only the lower triangle: fill the sub-diagonal through a flat view
        x.reshape(-1)[h :: h + 1] = off
        x[-1, -1] = (m + 1) / 2
        w, v = np.linalg.eigh(x)
        # -r lambda: cos is even and sin odd, so the weights give E = cos - i sin
        angle = np.rint(w) * -p.r
        g = np.empty((2, h, h), dtype=complex)
        np.matmul(v * np.cos(angle), v.T, out=g[0].real)
        np.matmul(v * np.sin(angle), v.T, out=g[0].imag)
        # E_odd = S conj(E_even) S: the conjugate, negated where i + j is odd
        np.conjugate(g[0], out=g[1])
        for flip in (g[1, ::2, 1::2], g[1, 1::2, ::2]):
            np.negative(flip, out=flip)
    else:
        # B = C^T, t x t with t = ceil(s/2): B[i, i] = X[2i+1, 2i] and
        # B[i, i+1] = X[2i+2, 2i+1], both blocks through one flat view
        t, cols = (s + 1) // 2, s // 2
        b = np.zeros((2, t, t))
        flat = b.reshape(2, -1)
        flat[:, : cols * (t + 1) : t + 1] = off[::2]
        flat[:, 1 :: t + 1] = off[1::2]
        # the last off-diagonal: the centre's coupling sqrt(2) sqrt(h(h+1)), and the idle row's zero
        b[:, cols - 1, -1] = math.sqrt(2 * h * (h + 1)), 0.0
        w, sigma, ut = np.linalg.svd(b)
        angle = np.rint(sigma)[:, None, :] * -p.r
        cos = np.cos(angle)
        u, wt = ut.transpose(0, 2, 1), w.transpose(0, 2, 1)
        # E on its even and odd rows and columns, through strided views; the
        # padding's row and column of g, at index s for odd s, are never read
        g = np.zeros((2, 2 * t, 2 * t), dtype=complex)
        gr, gi = g.real, g.imag
        np.matmul(u * cos, ut, out=gr[:, ::2, ::2])
        np.matmul(w * cos, wt, out=gr[:, 1::2, 1::2])
        eo = gi[:, ::2, 1::2]
        np.matmul(u * np.sin(angle), wt, out=eo)
        gi[:, 1::2, ::2] = eo.transpose(0, 2, 1)
    # d holds twice the real-frame matrix until the phases bring in the 1/2
    even, odd = g[0, :h, :h], g[1, :h, :h]
    d = np.empty((m + 1, m + 1), dtype=complex)
    np.add(even, odd, out=d[:h, :h])
    np.subtract(even, odd, out=d[:h, m : m - h : -1])
    if not m % 2:
        centre = g[0, h, :h] * math.sqrt(2)
        d[:h, h] = centre
        d[h, :h] = centre
        d[h, m:h:-1] = centre
        d[h, h] = 2 * g[0, h, h]
    d[m : m - h : -1] = d[:h, ::-1]
    # Q = e^{-i n theta} (-i)^n: theta + pi/2, rounded into one angle, would
    # err by up to 3.6e-12 at n = 8191; the quarter turns are exact
    q = phase_ramp(-p.theta, m + 1) * _QUARTER_TURNS[np.arange(m + 1) % 4]
    # (q_i / 2) conj(q_j) over blocks of about 2^16 entries, so no (m+1)^2 factor matrix is held
    step = max(1, 2**16 // (m + 1))
    for i in range(0, m + 1, step):
        d[i : i + step] *= (0.5 * q[i : i + step, None]) * q.conj()
    return d


# Largest photon cap of the exact product: the range its tests cover against
# scipy's expm.  Past it the big-integer work grows fast (6 s at m = 200).
DISENTANGLED_MAX_M = 100


def disentangled_displacement(xi: complex, m: int) -> np.ndarray:
    """D(xi) as exp(-tau* J-) exp(-ln(1+|tau|^2) J0) exp(tau J+), m <= 100.

    tau = e^{i phi} s with phi = arg xi and s = tan|xi|.  The two outer
    factors are exact finite polynomials (J+- are nilpotent), the middle one
    is diagonal.  xi must be finite and |xi| must stay away from
    pi/2 + k pi, where tan blows up.

    The product is formed in exact integers.  The double s is the dyadic
    rational a/b, and c = a^2 + b^2 = b^2 (1 + s^2).  With the diagonal
    similarities diag(e^{-+i n phi} sqrt(n!/(m-n)!)) pulled out of the outer
    factors, the entries for j >= i are

        D[i, j] = e^{i phi (j-i)} (-1)^i a^{j-i} b^{m-i-j} S[i, j]
                  / (c^{m/2} sqrt(i!(m-i)! j!(m-j)!)),
        S[i, j] = sum_{l <= i} (-1)^l C(i,l) C(j,l) l!(m-l)! c^l (a^2)^{i-l},

    and D[j, i] is D[i, j] with the phase conjugated and the sign
    (-1)^{i+j}.  The alternating sum S, where the (1+s^2)^{m/2}
    cancellation of the corner entries happens, is an exact integer,
    evaluated by Horner's rule in a^2; each entry is then one correctly
    rounded integer division times a few double factors that do not cancel
    (sqrt C(m,i), the phase and, for odd m, 1/sqrt(1+s^2)), so entries come
    out to a few ulps.  Cost: O(m^3) big-integer steps on numbers of about
    m log2(c) bits, about m^4.5 in all; one call takes 0.1 ms at m = 5,
    2 ms at m = 20 and 0.4 s at m = 100 on one core.

    Tested against scipy's expm up to m = 100, for |xi| up to 1.5 and on a
    later tan branch (|xi| = 3): within 5e-14 Frobenius, held to 1e-12.  On
    later branches (|xi| > pi/2) the product reproduces the rotation only up
    to the double-cover sign (-1)^m, a global phase.
    """
    if not isinstance(m, numbers.Integral) or not 0 <= m <= DISENTANGLED_MAX_M:
        raise ValueError(
            f"photon cap must be an integer in [0, {DISENTANGLED_MAX_M}] for the "
            f"disentangled product, got {m!r}"
        )
    xi = complex(xi)
    absxi = abs(xi)
    if not math.isfinite(absxi):
        raise ValueError(f"xi must be finite, got {xi}")
    if abs(math.remainder(absxi, math.pi)) > math.pi / 2 - 1e-8:
        raise ValueError(f"|xi| = {absxi} is within 1e-8 of a tan singularity")
    if absxi == 0.0 or m == 0:
        return np.eye(m + 1, dtype=complex)

    s = math.tan(absxi)
    a, b = s.as_integer_ratio()
    u = a * a
    c = u + b * b
    d = m + 1
    binom = [[math.comb(j, l) for l in range(j + 1)] for j in range(d)]
    c_pow = [c**l for l in range(d)]
    a_pow = [a**k for k in range(d)]
    b_pow = [b**k for k in range(d)]
    f = [math.factorial(l) * math.factorial(m - l) for l in range(d)]
    # 1/sqrt(i!(m-i)! j!(m-j)!) = sqrt(C(m,i) C(m,j)) / m! and, for odd m,
    # c^{m/2} = c^{m//2} b sqrt(1+s^2): den takes the integers, the roots stay doubles
    den = math.factorial(m) * c_pow[m // 2] * b_pow[m % 2]
    t = np.empty((d, d))
    for i in range(d):
        row = [(-1) ** l * binom[i][l] * f[l] * c_pow[l] for l in range(i + 1)]
        for j in range(i, d):
            s_ij = 0
            for r, binom_jl in zip(row, binom[j]):
                s_ij = s_ij * u + r * binom_jl
            num = (-1) ** i * a_pow[j - i] * s_ij
            e = m - i - j
            q = num * b_pow[e] / den if e >= 0 else num / (den * b_pow[-e])
            t[i, j] = q
            t[j, i] = -q if (i + j) % 2 else q
    w = np.sqrt(np.array([float(x) for x in binom[m]]))
    t *= np.outer(w, w)
    if m % 2:
        t /= math.hypot(1.0, s)
    phase = phase_ramp(math.atan2(xi.imag, xi.real), d)
    return t * np.outer(phase.conj(), phase)
