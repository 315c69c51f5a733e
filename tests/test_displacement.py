import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import hp_generators
from gbstates.displacement import (
    DISENTANGLED_MAX_M,
    DisplacementParams,
    delta_to_zeta,
    disentangled_displacement,
    displacement,
)
from gbstates.fock import basis_state


def test_delta_to_zeta_cases():
    p = delta_to_zeta(0.0, 3)
    assert (p.r, p.theta) == (0.0, 0.0)

    p = delta_to_zeta(1.0, 3)
    assert p.r == pytest.approx(math.pi / 4)
    assert p.theta == 0.0

    # arg(-i) = -pi/2, so theta = -arg = +pi/2
    p = delta_to_zeta(-1j, 3)
    assert p.r == pytest.approx(math.pi / 4)
    assert p.theta == pytest.approx(math.pi / 2)


def test_delta_to_zeta_negative_real_maps_to_theta_pi():
    p = delta_to_zeta(-0.7, 2)
    assert p.theta == pytest.approx(math.pi)
    # round trip: delta = e^{-i theta} tan r
    delta = math.tan(p.r) * np.exp(-1j * p.theta)
    assert delta == pytest.approx(-0.7, abs=1e-15)


def test_displacement_params_validation():
    with pytest.raises(ValueError):
        DisplacementParams(r=-0.1, theta=0.0, m=2)
    with pytest.raises(ValueError):
        DisplacementParams(r=0.1, theta=4.0, m=2)
    with pytest.raises(ValueError):
        DisplacementParams(r=0.1, theta=0.0, m=-1)
    # NaN fails every comparison, so r < 0 alone lets it through
    for r in (math.nan, math.inf):
        with pytest.raises(ValueError, match="rotation magnitude must be finite and >= 0"):
            DisplacementParams(r=r, theta=0.0, m=4)
    # the parity blocks index with m // 2
    for m in (4.0, 2.5):
        with pytest.raises(ValueError, match="photon cap must be an integer >= 0"):
            DisplacementParams(r=0.3, theta=0.0, m=m)
    assert DisplacementParams(r=0.3, theta=0.0, m=np.int64(4)).m == 4
    with pytest.raises(ValueError, match="photon cap m = 67108864 needs 67108865 amplitudes per state"):
        DisplacementParams(r=0.3, theta=0.0, m=2**26)


def test_displacement_identity_and_two_level_action():
    assert np.array_equal(displacement(DisplacementParams(0.0, 0.0, 4)), np.eye(5))

    d = displacement(DisplacementParams(math.pi / 4, 0.0, 1))
    got = d @ basis_state(0, 2)
    expected = np.array([math.cos(math.pi / 4), -math.sin(math.pi / 4)], dtype=complex)
    np.testing.assert_allclose(got, expected, atol=1e-15)


def test_displacement_unitary_and_inverse():
    rng = np.random.default_rng(3)
    for m in (1, 7, 20, 40, 400):
        r = float(rng.uniform(0.0, math.pi / 2 * 0.99))
        theta = float(rng.uniform(-math.pi, math.pi))
        d = displacement(DisplacementParams(r, theta, m))
        assert np.linalg.norm(d.conj().T @ d - np.eye(m + 1)) <= 1e-11
        # D(zeta)^-1 = D(-zeta)
        theta_flip = theta + math.pi if theta <= 0 else theta - math.pi
        d_inv = displacement(DisplacementParams(r, theta_flip, m))
        assert np.linalg.norm(d @ d_inv - np.eye(m + 1)) <= 1e-11


@pytest.mark.parametrize("m", [800, 801])
def test_displacement_peak_stays_within_twice_its_output(m):
    # while D is assembled, the half-size parity blocks (half the output)
    # and the factorization's arrays (at most a quarter) are alive with it;
    # the phase factors come in blocks of rows, where all (m+1)^2 of them at
    # once put the peak at 2.7 times the output
    tracemalloc.start()
    try:
        d = displacement(DisplacementParams(0.6, 0.3, m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * d.nbytes


@pytest.mark.parametrize("m", [800, 801])
def test_displacement_unitary_at_the_largest_benchmarked_cap(m):
    # both paths at their largest size: the half-size eigh (odd m) and the
    # quarter-size SVD (even m)
    d = displacement(DisplacementParams(1.2, -0.8, m))
    assert np.linalg.norm(d.conj().T @ d - np.eye(m + 1)) <= 1e-11


@given(
    st.integers(1, 30),
    st.floats(0.0, 1.5),
    st.floats(-math.pi, math.pi, exclude_min=True),
)
def test_displacement_matches_the_exact_integer_product(m, r, theta):
    # the normal-ordered product shares no step with eigh or the SVD
    direct = displacement(DisplacementParams(r, theta, m))
    product = disentangled_displacement(r * np.exp(1j * theta), m)
    assert np.linalg.norm(direct - product) <= 1e-10


@pytest.mark.parametrize(
    "m, r, theta",
    [
        (60, 0.3, 0.7),
        (60, 2.6, math.pi),
        (60, 1.0, -2.0),
        (400, 2.6, math.pi),
        (400, 1.1, -0.4),
        # the parity split's edges: no pair at all (0), one central pair and
        # nothing else (1), a padded odd block whose idle row shares the
        # eigenvalue 0 with it (2: m/2 odd), and odd m beside the even ones
        (0, 1.1, 0.4),
        (1, 1.1, 0.4),
        (2, 2.6, -1.3),
        (3, 0.7, math.pi),
        (61, 1.0, -2.0),
        (401, 2.6, math.pi),
        # every residue of m mod 4, small and large: for even m, s = m/2 + 1
        # even gives square bidiagonal blocks C, s odd gives C one row taller
        # than wide, with a left null vector; for odd m, h = (m+1)/2 even or odd
        (4, 1.3, 0.9),
        (5, 0.4, -2.9),
        (6, 2.2, 1.7),
        (7, 1.5, -0.6),
        (62, 0.9, 2.4),
        (63, 2.9, -1.1),
        (402, 1.4, 0.3),
        (403, 0.6, -2.2),
    ],
)
def test_displacement_matches_expm_of_the_generator(m, r, theta):
    # entrywise against scipy's expm, up to m = 401; unitarity and
    # D(zeta) D(-zeta) = I alone would not see the phase
    # similarity Q and Q^dag swapped (that D sits ~10 away at m = 60)
    p = DisplacementParams(r, theta, m)
    _, jp, jm = hp_generators(m)
    generator = p.zeta * jp - np.conj(p.zeta) * jm
    assert np.linalg.norm(displacement(p) - expm(generator)) <= 1e-11


def test_disentangled_identity_cases():
    np.testing.assert_array_equal(disentangled_displacement(0.0, 5), np.eye(6))
    # whole-pi magnitudes give the identity product for any phase
    for mult in (1, 2):
        for theta in (0.0, 0.9, -2.0):
            xi = mult * math.pi * np.exp(1j * theta)
            got = disentangled_displacement(xi, 6)
            assert np.linalg.norm(got - np.eye(7)) <= 1e-12


def test_disentangled_matches_displacement():
    # the exact-integer normal-ordered product against the eigendecomposed rotation
    rng = np.random.default_rng(11)
    for _ in range(8):
        m = int(rng.integers(1, 21))
        r = float(rng.uniform(0.0, 1.4))
        theta = float(rng.uniform(-np.pi, np.pi))
        direct = displacement(DisplacementParams(r, theta, m))
        product = disentangled_displacement(r * np.exp(1j * theta), m)
        assert np.linalg.norm(direct - product) <= 1e-10


@pytest.mark.parametrize(
    "m, xi",
    [
        (40, 1.5),
        (60, 1.5),
        (60, 1.2 * np.exp(0.7j)),
        (100, 1.4 * np.exp(-2.0j)),
        # a later tan branch: the product is the rotation times (-1)^m
        (12, 3.0),
        (13, 3.0 * np.exp(-1.1j)),
        (100, 3.0),
    ],
)
def test_disentangled_matches_expm(m, xi):
    # the corner entries cancel both the middle factor's (1+|tau|^2)^(m/2) and
    # the binomial weights of the outer factors; precision sized for the first
    # alone erred 7e-12 at (40, 1.5) and 2e-5 at m = 60
    _, jp, jm = hp_generators(m)
    sign = (-1) ** (m * round(abs(xi) / math.pi))
    expected = sign * expm(xi * jp - np.conj(xi) * jm)
    assert np.linalg.norm(disentangled_displacement(xi, m) - expected) <= 1e-12


def test_disentangled_rejects_tan_singularity():
    for bad in (math.pi / 2, math.pi / 2 + math.pi, math.pi / 2 + 1e-9):
        with pytest.raises(ValueError):
            disentangled_displacement(bad * np.exp(0.3j), 4)


@pytest.mark.parametrize("xi", [math.nan, math.inf, complex(0.3, math.nan), complex(-math.inf, 1.0)])
def test_disentangled_rejects_non_finite_xi(xi):
    with pytest.raises(ValueError, match="xi must be finite"):
        disentangled_displacement(xi, 4)


@pytest.mark.parametrize("m", [-1, DISENTANGLED_MAX_M + 1, 4.0])
def test_disentangled_rejects_photon_cap_outside_its_range(m):
    with pytest.raises(ValueError, match=rf"\[0, {DISENTANGLED_MAX_M}\]"):
        disentangled_displacement(0.3, m)
