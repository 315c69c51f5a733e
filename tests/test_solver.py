import cmath
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln

from conftest import dense_reference, frame_scale, hp_generators
from gbstates.binomial import BinomialParams, binomial_amplitudes
from gbstates.displacement import DisplacementParams, delta_to_zeta, displacement
from gbstates.fock import AMPLITUDE_CAP, basis_state, fidelity, normalize_rows, normalize_state
from gbstates.oracle import _band_spectrum, compare
from gbstates.solver import (
    GBSParams,
    SolutionKind,
    bands,
    binomial_phase_parameters,
    branch_kind,
    build_operator,
    coefficient_triple,
    constraint_roots,
    eigenstate,
    eigenstate_exponential,
    eigenstate_sum,
    operator_norm,
    select_root,
    solve,
    spectrum,
    undisplaced_eigenstate,
)
from gbstates.solver import (
    CoefficientTriple,
    _core,
    _core_tables,
    _cores,
    _exponential_form_core,
    _moduli,
    _point,
    _rescaled_moduli,
    _twisted_states,
)
from gbstates.verification import DEFAULT_SEED, random_parameter_draws


def random_params(rng, hermitian=False, m_max=12):
    m = int(rng.integers(1, m_max + 1))
    mu = rng.uniform(0.05, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    nu = np.conj(mu) if hermitian else rng.uniform(0.0, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    return GBSParams(mu=complex(mu), nu=complex(nu), eta=float(rng.uniform(0.05, 0.95)), m=m)


def test_params_validation():
    with pytest.raises(ValueError):
        GBSParams(mu=0.0, nu=0.0, eta=0.5, m=2)
    with pytest.raises(ValueError):
        GBSParams(mu=1.0, nu=0.0, eta=0.0, m=2)
    with pytest.raises(ValueError):
        GBSParams(mu=1.0, nu=0.0, eta=1.0, m=2)
    with pytest.raises(ValueError):
        GBSParams(mu=1.0, nu=0.0, eta=0.5, m=-1)


@pytest.mark.parametrize(
    "kwargs, bound",
    [
        (dict(mu=math.nan, nu=0.0, eta=0.4, m=5), "mu must be finite"),
        (dict(mu=complex(1.0, math.inf), nu=0.0, eta=0.4, m=5), "mu must be finite"),
        (dict(mu=1.0, nu=math.inf, eta=0.4, m=5), "nu must be finite"),
        (dict(mu=1.0, nu=complex(0.0, math.nan), eta=0.4, m=5), "nu must be finite"),
        (dict(mu=1.0, nu=0.0, eta=math.nan, m=5), r"eta must lie strictly inside \(0, 1\)"),
        (dict(mu=1.0, nu=0.0, eta=math.inf, m=5), r"eta must lie strictly inside \(0, 1\)"),
        (dict(mu=1.0, nu=0.0, eta=0.4, m=5.0), "photon cap must be an integer"),
    ],
)
def test_params_reject_non_finite_and_non_integer(kwargs, bound):
    with pytest.raises(ValueError, match=bound):
        GBSParams(**kwargs)


@pytest.mark.parametrize(
    "mu, nu, bound",
    [
        (1.0, 1e160, r"\|nu\| must be at most 1e50"),
        (1e-200, 1e200, r"\|mu\| must lie in \[1e-50, 1e50\]"),
        (1e308, 1e308, r"\|mu\| must lie in \[1e-50, 1e50\]"),
    ],
)
def test_params_reject_magnitudes_past_the_bound(mu, nu, bound):
    # each used to overflow into an OverflowError, in operator_norm or in
    # coefficient_triple
    with pytest.raises(ValueError, match=bound):
        GBSParams(mu=mu, nu=nu, eta=0.4, m=3)


@pytest.mark.parametrize(
    "mu, nu, eta",
    [(1e-50, 1e50, 0.4), (1e50, 1e50, 0.4), (1e50j, -1e50, 0.5), (1e-50, 1e50, 1e-300)],
)
def test_params_at_the_magnitude_bounds_solve(mu, nu, eta):
    p = GBSParams(mu=mu, nu=nu, eta=eta, m=8)
    assert compare(p, solve(p)).passed


def test_params_accept_numpy_integer_cap():
    assert GBSParams(mu=1.0, nu=0.0, eta=0.4, m=np.int64(5)).m == 5


def test_params_amplitude_cap_boundary():
    # m + 1 amplitudes per state; checked before anything is allocated
    assert AMPLITUDE_CAP == 2**26
    assert GBSParams(mu=1.0, nu=0.3, eta=0.4, m=AMPLITUDE_CAP - 1).m == AMPLITUDE_CAP - 1
    with pytest.raises(ValueError, match="photon cap m = 67108864 needs 67108865 amplitudes per state, "
                                         "above the cap 67108864"):
        GBSParams(mu=1.0, nu=0.3, eta=0.4, m=AMPLITUDE_CAP)
    # gbs --m 2000000000000 is named, not allocated
    with pytest.raises(ValueError, match="photon cap m = 2000000000000 needs"):
        GBSParams(mu=1.0, nu=0.3, eta=0.4, m=2_000_000_000_000)


@pytest.mark.parametrize("nu", [0.3, -0.25, 1.0], ids=["generic", "defective", "hermitian"])
def test_solve_amplitude_cap_boundary(monkeypatch, nu):
    # (m+1)^2 amplitudes: m = 8191 fills the cap exactly; with the state
    # builder stubbed out, nothing that size is allocated
    monkeypatch.setattr("gbstates.solver._eigenstates", lambda p, frame, ks: None)
    assert solve(GBSParams(1.0, nu, 0.5, 8191)).eigenstates is None
    with pytest.raises(ValueError, match="a solve at m = 8192 needs 67125249 amplitudes, above the cap 67108864"):
        solve(GBSParams(1.0, nu, 0.5, 8192))


def test_displacement_names_the_amplitude_cap():
    # D(zeta) has (m+1)^2 entries: the defective and Hermitian eigenstates read a column of it
    with pytest.raises(ValueError, match=r"D\(zeta\) at m = 8192 needs 67125249 amplitudes, above the cap 67108864"):
        displacement(DisplacementParams(r=0.3, theta=0.0, m=8192))
    with pytest.raises(ValueError, match=r"D\(zeta\) at m = 9000 needs"):
        eigenstate(GBSParams(1.0, -0.25, 0.5, 9000), 0)


def test_build_operator_two_level_assembly():
    # mu=1, nu=0, eta=0.5, m=1: sqrt(0.5) J+ - sqrt(0.5) diag(1/2, -1/2)
    op = build_operator(GBSParams(1.0, 0.0, 0.5, 1))
    s = math.sqrt(0.5)
    expected = np.array([[-s / 2, s], [0.0, s / 2]], dtype=complex)
    np.testing.assert_allclose(op, expected, atol=1e-16)


def test_build_operator_diagonal_is_minus_sqrt_eta_j0():
    p = GBSParams(0.3 + 0.4j, 0.2j, 0.36, 5)
    op = build_operator(p)
    n = np.arange(6)
    np.testing.assert_allclose(np.diag(op), -0.6 * (5 / 2 - n), atol=1e-15)


def test_build_operator_hermitian_when_nu_is_conjugate_mu():
    mu = cmath.exp(1j * math.pi / 3)
    for m in (1, 8, 20):
        op = build_operator(GBSParams(mu, np.conj(mu), 0.7, m))
        assert np.linalg.norm(op - op.conj().T) <= 1e-14


def test_build_operator_triangular_spectrum_nu_zero():
    op = build_operator(GBSParams(1.0, 0.0, 0.25, 2))
    assert np.abs(np.tril(op, -1)).max() == 0.0
    np.testing.assert_allclose(sorted(np.diag(op).real), [-0.5, 0.0, 0.5], atol=1e-15)


def test_operator_norm_matches_dense_frobenius_norm():
    rng = np.random.default_rng(400)
    for m in (1, 2, 7, 60, 199, 400):
        for _ in range(5):
            p = random_params(rng)
            p = GBSParams(p.mu, rng.choice([0.0, 1.0]) * p.nu, p.eta, m)
            dense = np.linalg.norm(dense_reference(p))
            assert abs(operator_norm(p) - dense) <= 1e-13 * dense
    assert operator_norm(GBSParams(1.0, 0.5, 0.5, 0)) == 0.0


def test_constraint_roots_nu_zero():
    p = GBSParams(mu=2.0j, nu=0.0, eta=0.36, m=4)
    r1, r2 = constraint_roots(p)
    assert r1 == 0.0
    assert r2 == pytest.approx(-0.6 / (2.0j * 0.8), abs=1e-15)


def test_constraint_roots_golden_ratio():
    r1, r2 = constraint_roots(GBSParams(1.0, 1.0, 0.5, 2))
    golden = (-1 + math.sqrt(5)) / 2
    got = sorted([r1, r2], key=lambda z: z.real)
    assert got[0] == pytest.approx(-1 - golden, abs=1e-15)
    assert got[1] == pytest.approx(golden, abs=1e-15)


def test_constraint_roots_match_independent_closed_form():
    # delta = -(1/2mu) sqrt(eta/(1-eta)) +- (1/2mu) sqrt(eta/(1-eta) + 4 mu nu)
    rng = np.random.default_rng(9)
    for _ in range(30):
        p = random_params(rng)
        s = p.eta / (1 - p.eta)
        base = -cmath.sqrt(s) / (2 * p.mu)
        off = cmath.sqrt(s + 4 * p.mu * p.nu) / (2 * p.mu)
        expect = sorted([base + off, base - off], key=lambda z: (z.real, z.imag))
        got = sorted(constraint_roots(p), key=lambda z: (z.real, z.imag))
        for a, b in zip(got, expect):
            assert abs(a - b) <= 1e-12 * (1 + abs(b))


def test_select_root_policies():
    # the principal root, constraint_roots(p)[0]: no rotation at nu = 0
    p = GBSParams(1.0, 0.0, 0.25, 2)
    assert select_root(p) == 0.0
    q = GBSParams(0.7j, 1.2, 0.6, 5)
    assert select_root(q) == constraint_roots(q)[0]


@pytest.mark.parametrize("mu, nu, eta", [(1.0, -1.0, 0.5), (1.0, -2.0, 0.4), (0.5j, 1.5j, 0.3)])
def test_constraint_roots_tie_rule(mu, nu, eta):
    # mu nu real and <= -eta/(4(1-eta)): A0 is imaginary, both roots have
    # one modulus, and the principal root is the one with Im A0 >= 0
    p = GBSParams(mu, nu, eta, 3)
    a0 = 1j * math.sqrt(-(eta + 4 * (1 - eta) * (mu * nu).real))
    principal, secondary = constraint_roots(p)
    assert abs(abs(principal) - abs(secondary)) <= 1e-15 * abs(secondary)
    expect = 2 * math.sqrt(1 - eta) * nu / (math.sqrt(eta) + a0)
    assert principal == pytest.approx(expect, rel=1e-15)
    assert coefficient_triple(p, principal).a_zero == pytest.approx(a0, rel=1e-14)
    assert coefficient_triple(p, secondary).a_zero == pytest.approx(-a0, rel=1e-14)


def test_coefficient_triple_no_rotation():
    p = GBSParams(0.5 + 0.5j, 0.3 - 0.1j, 0.36, 4)
    t = coefficient_triple(p, 0.0)
    assert t.a_plus == pytest.approx(p.mu * 0.8, abs=1e-15)
    assert t.a_minus == pytest.approx(p.nu * 0.8, abs=1e-15)
    assert t.a_zero == pytest.approx(0.6, abs=1e-15)


def test_coefficient_triple_kills_a_minus_at_both_roots():
    rng = np.random.default_rng(17)
    for _ in range(40):
        p = random_params(rng)
        for delta in constraint_roots(p):
            t = coefficient_triple(p, delta)
            assert abs(t.a_minus) <= 1e-10 * frame_scale(p)


def test_bands_are_the_diagonals_of_the_dense_generator_sum():
    rng = np.random.default_rng(8)
    q = random_params(rng)
    # verify's draws: 200 generic and 50 Hermitian
    points = [*random_parameter_draws(200, DEFAULT_SEED),
              *random_parameter_draws(50, DEFAULT_SEED + 1, hermitian=True)]
    points += [GBSParams(q.mu, q.nu, q.eta, m) for m in (0, 1, 2, 400, 1000)]
    points += [GBSParams(1.0, 0.0, 0.3, 3), GBSParams(0.7j, 1.2, 0.6, 60)]
    for p in points:
        ref = dense_reference(p)
        got = bands(p)
        assert [len(b) for b in got] == [p.m, p.m + 1, p.m]
        for band, j in zip(got, (-1, 0, 1)):
            assert band.dtype == complex
            assert np.array_equal(band, np.diagonal(ref, j))
        assert np.array_equal(build_operator(p), ref)


def test_bands_read_the_hop_at_the_largest_dense_m():
    # entry by entry against math.sqrt on the integers, in O(m)
    p = GBSParams(0.9 + 0.4j, 0.3j, 0.55, 8191)
    s = math.sqrt(1.0 - p.eta)
    _, _, sup = bands(p)
    expected = [s * (complex(p.mu) * math.sqrt((n + 1) * (p.m - n))) for n in range(p.m)]
    np.testing.assert_array_equal(sup, expected)


def test_coefficient_triple_is_the_rotated_operator():
    # the triple is read off the 2x2 matrix; D(zeta)^H L D(zeta) is formed
    # from displacement() and the dense operator
    rng = np.random.default_rng(42)
    for m in (1, 4, 12, 20, 400):
        q = random_params(rng)
        p = GBSParams(q.mu, q.nu, q.eta, m)
        op = dense_reference(p)
        j0, jp, jm = hp_generators(m)
        for delta in (*constraint_roots(p), complex(*rng.normal(size=2))):
            t = coefficient_triple(p, delta)
            d = displacement(delta_to_zeta(delta, m))
            expect = t.a_plus * jp + t.a_minus * jm - t.a_zero * j0
            assert np.linalg.norm(d.conj().T @ op @ d - expect) <= 1e-12 * np.linalg.norm(op)


def test_hermitian_case_kills_both_off_coefficients():
    p = GBSParams(1.0, 1.0, 0.5, 2)
    golden = (-1 + math.sqrt(5)) / 2
    t = coefficient_triple(p, golden)
    assert abs(t.a_minus) <= 1e-12
    assert abs(t.a_plus) <= 1e-12


def test_spectrum_nu_zero_example():
    got = spectrum(GBSParams(1.0, 0.0, 0.25, 2))
    np.testing.assert_allclose(sorted(got.real), [-0.5, 0.0, 0.5], atol=1e-15)
    assert np.abs(got.imag).max() == 0.0


def test_spectrum_matches_oracle_on_random_draws():
    rng = np.random.default_rng(23)
    for _ in range(25):
        p = random_params(rng)
        closed = np.sort_complex(spectrum(p))
        oracle_vals = np.sort_complex(_band_spectrum(*bands(p))[0])
        used = np.zeros(len(oracle_vals), dtype=bool)
        worst = 0.0
        for z in closed:
            d = np.abs(oracle_vals - z)
            d[used] = np.inf
            j = int(np.argmin(d))
            used[j] = True
            worst = max(worst, float(d[j]))
        assert worst <= 1e-9 * (1 + np.abs(closed).max())


def test_undisplaced_eigenstate_support():
    p = GBSParams(1.2 * np.exp(0.3j), 0.5, 0.4, 9)
    for k in (0, 3, 9):
        core = undisplaced_eigenstate(p, k)
        if k < p.m:
            assert np.abs(core[k + 1 :]).max() == 0.0
        assert abs(core[k]) > 0.0


def test_eigenstate_k0_is_rotated_vacuum():
    p = GBSParams(1.0, 0.6, 0.5, 6)
    v = eigenstate_sum(p, 0)
    zeta = delta_to_zeta(select_root(p), p.m)
    expected = displacement(zeta) @ basis_state(0, 7)
    assert fidelity(v, expected) >= 1 - 1e-13


def test_nu_zero_top_state_recovers_binomial():
    for m, eta in ((5, 0.36), (12, 0.7)):
        v = eigenstate_sum(GBSParams(1.0, 0.0, eta, m), m)
        assert fidelity(v, binomial_amplitudes(BinomialParams(eta, m))) >= 1 - 1e-12


def test_nu_zero_mu_phase_puts_phases_on_amplitudes():
    eta, m, phi = 0.4, 7, 1.1
    base = eigenstate_sum(GBSParams(1.0, 0.0, eta, m), m)
    dressed = eigenstate_sum(GBSParams(cmath.exp(1j * phi), 0.0, eta, m), m)
    n = np.arange(m + 1)
    np.testing.assert_allclose(dressed, base * np.exp(-1j * n * phi), atol=1e-13)


def test_top_state_binomial_phase_structure():
    p = GBSParams(1.3 * np.exp(0.8j), 0.4 * np.exp(-0.5j), 0.45, 8)
    eta_prime, theta0, theta_plus = binomial_phase_parameters(p)
    assert 0.0 < eta_prime < 1.0
    core = undisplaced_eigenstate(p, p.m)
    ref = binomial_amplitudes(BinomialParams(eta_prime, p.m))
    n = np.arange(p.m + 1)
    expected = ref * np.exp(1j * n * (theta0 - theta_plus))
    # both sides carry the lead-entry-real normalization, so compare termwise
    np.testing.assert_allclose(core, expected / (expected[0] / abs(expected[0])), atol=1e-12)


def test_binomial_phase_parameters_nu_zero():
    p = GBSParams(1.0, 0.0, 0.3, 6)
    eta_prime, theta0, theta_plus = binomial_phase_parameters(p)
    assert eta_prime == pytest.approx(0.3, abs=1e-14)
    assert theta0 - theta_plus == pytest.approx(0.0, abs=1e-14)

    phi = 0.9
    eta_prime, theta0, theta_plus = binomial_phase_parameters(
        GBSParams(cmath.exp(1j * phi), 0.0, 0.3, 6)
    )
    assert theta0 - theta_plus == pytest.approx(-phi, abs=1e-14)


def test_binomial_phase_parameters_modulus_dependence():
    # |mu| enters eta' squared
    for mod in (0.5, 2.0):
        eta = 0.3
        eta_prime, _, _ = binomial_phase_parameters(GBSParams(mod, 0.0, eta, 6))
        assert eta_prime == pytest.approx(eta / (eta + mod**2 * (1 - eta)), abs=1e-14)


def test_exponential_form_k0_is_vacuum_core():
    p = GBSParams(1.0, 0.4, 0.5, 5)
    zeta = delta_to_zeta(select_root(p), p.m)
    v = eigenstate_exponential(p, 0)
    expected = displacement(zeta) @ basis_state(0, 6)
    assert fidelity(v, expected) >= 1 - 1e-13


def test_exponential_equals_sum_form():
    p = GBSParams(1.0, 0.0, 0.5, 4)
    assert fidelity(eigenstate_sum(p, 2), eigenstate_exponential(p, 2)) >= 1 - 1e-12

    rng = np.random.default_rng(7)
    for _ in range(15):
        q = random_params(rng, m_max=10)
        for k in range(q.m + 1):
            assert fidelity(eigenstate_sum(q, k), eigenstate_exponential(q, k)) >= 1 - 1e-11


def test_eigenstate_index_validation():
    p = GBSParams(1.0, 0.0, 0.5, 4)
    with pytest.raises(ValueError):
        eigenstate_sum(p, 5)
    with pytest.raises(ValueError):
        eigenstate_exponential(p, -1)


def test_degenerate_branch_hermitian_case():
    p = GBSParams(1.0, 1.0, 0.5, 2)
    states = solve(p).eigenstates
    assert len(states) == 3
    op = dense_reference(p)
    lams = spectrum(p)
    for lam, v in zip(lams, states):
        assert np.linalg.norm(op @ v - lam * v) <= 1e-10 * np.linalg.norm(op)
    basis = np.column_stack(states)
    assert np.abs(basis.conj().T @ basis - np.eye(3)).max() <= 1e-11


def test_degenerate_states_orthonormal_random_phase():
    rng = np.random.default_rng(13)
    for _ in range(6):
        mu = rng.uniform(0.2, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        p = GBSParams(complex(mu), complex(np.conj(mu)), float(rng.uniform(0.1, 0.9)), int(rng.integers(1, 11)))
        states = solve(p).eigenstates
        basis = np.column_stack(states)
        off = basis.conj().T @ basis - np.eye(p.m + 1)
        assert np.abs(off).max() <= 1e-11


def test_degenerate_states_approach_number_states_near_eta_one():
    # residual rotation shrinks like sqrt(1 - eta); fidelities rise toward 1
    p = GBSParams(1.0, 1.0, 0.999, 2)
    for k in range(3):
        assert fidelity(eigenstate(p, k), basis_state(k, 3)) >= 0.99
    closer = GBSParams(1.0, 1.0, 0.99999, 2)
    for k in range(3):
        assert fidelity(eigenstate(closer, k), basis_state(k, 3)) >= 0.9999


def test_degenerate_requires_right_branch():
    # the closed forms exist only on the generic branch; eigenstate serves all
    hermitian = GBSParams(1.0, 1.0, 0.5, 3)
    for closed_form in (eigenstate_sum, eigenstate_exponential, undisplaced_eigenstate):
        with pytest.raises(ValueError, match="generic branch"):
            closed_form(hermitian, 1)
    with pytest.raises(ValueError, match="generic branch"):
        binomial_phase_parameters(hermitian)


def test_eigenstate_is_the_solve_entry_on_every_branch():
    points = (
        GBSParams(1.2 * np.exp(0.3j), 0.5, 0.4, 9),  # generic
        GBSParams(0.6 - 0.8j, 0.6 + 0.8j, 0.3, 7),  # Hermitian, A+ = 0
        GBSParams(1.0, -1.0, 0.8, 5),  # defective, A0 = 0
        GBSParams(1.0, 0.3j, 0.4, 6),
    )
    for p in points:
        sol = solve(p)
        for k, v in enumerate(sol.eigenstates):
            np.testing.assert_array_equal(eigenstate(p, k), v)


def test_eigenstate_rejects_indices_the_branch_lacks():
    with pytest.raises(ValueError, match="outside 0..4"):
        eigenstate(GBSParams(1.0, 0.0, 0.5, 4), 5)
    with pytest.raises(ValueError, match="outside 0..4"):
        eigenstate(GBSParams(1.0, 0.0, 0.5, 4), -1)
    defective = GBSParams(1.0, -0.25, 0.5, 4)
    assert solve(defective).kind is SolutionKind.DEFECTIVE_A_ZERO_ZERO
    with pytest.raises(ValueError, match="only the eigenstate k = 0"):
        eigenstate(defective, 2)


@pytest.mark.parametrize("m, k", [(700, 700), (1000, 900)])
def test_cores_past_the_square_overflow(m, k):
    # this core exceeds 1e154 before normalizing; its squared norm used to
    # overflow inside normalize_state and raise IndexError
    p = GBSParams(1.0, 0.3j, 0.4, m)
    t = coefficient_triple(p, select_root(p))
    core = undisplaced_eigenstate(p, k)
    assert np.all(np.isfinite(core))
    j0, jp, _ = hp_generators(m)
    rotated = t.a_plus * jp - t.a_zero * j0
    lam = t.a_zero * (2 * k - m) / 2
    assert np.linalg.norm(rotated @ core - lam * core) <= 1e-10 * np.linalg.norm(rotated)
    # solve builds every core in one batch; a single state must not differ by a bit
    states = solve(p).eigenstates
    for j in (0, m // 2, m):
        np.testing.assert_array_equal(eigenstate(p, j), states[j])


@pytest.mark.parametrize(
    "p, kind",
    [
        (GBSParams(1.0, 0.3j, 0.4, 400), SolutionKind.GENERIC),
        (GBSParams(0.9 + 0.4j, 0.9 - 0.4j, 0.55, 401), SolutionKind.DEGENERATE_A_PLUS_ZERO),
    ],
)
def test_eigenstate_is_the_solve_entry_at_large_m(p, kind):
    # the property test draws m <= 60; here the parity blocks of D(zeta) and
    # the support-limited product run at an even and an odd m in the hundreds
    sol = solve(p)
    assert sol.kind is kind
    op = dense_reference(p)
    bound = 1e-10 * np.linalg.norm(op)
    for k in (0, p.m // 2, p.m):
        v = eigenstate(p, k)
        np.testing.assert_array_equal(v, sol.eigenstates[k])
        assert np.linalg.norm(op @ v - sol.eigenvalues[k] * v) <= bound


@pytest.mark.parametrize("eta", [1e-6, 1e-4, 0.3, 0.5, 0.99, 0.9999, 1 - 1e-6])
@pytest.mark.parametrize("mu, nu", [(1.0, 0.0), (0.7 * cmath.exp(0.9j), 0.3j)])
def test_cores_match_the_closed_form_in_mpmath(eta, mu, nu):
    # core_k(n) = e^{i n arg x} |x|^n C(k, n) / sqrt(C(m, n)), x = A0/A+, at 30
    # digits; with nu = 0, |x| = sqrt(eta / (1 - eta)) runs from 1e-3 to 1e3
    m = 60
    p = GBSParams(mu, nu, eta, m)
    t = coefficient_triple(p, select_root(p))
    x = t.a_zero / t.a_plus
    for k in (0, 1, 7, 30, 59, 60):
        with mp.workdps(30):
            terms = [mp.mpf(abs(x)) ** n * mp.binomial(k, n) / mp.sqrt(mp.binomial(m, n))
                     * mp.expj(n * mp.mpf(cmath.phase(x))) for n in range(k + 1)]
            norm = mp.sqrt(mp.fsum(abs(c) ** 2 for c in terms))
            expected = np.zeros(m + 1, dtype=complex)
            expected[: k + 1] = [complex(c / norm) for c in terms]
        got = undisplaced_eigenstate(p, k)
        assert np.abs(got - normalize_state(expected)).max() <= 1e-13


def test_nu_zero_eigenstates_near_the_number_limit_at_m200():
    # solve and the number-limit scans failed here on the same overflow
    for eta in (0.99, 0.9999):
        p = GBSParams(1.0, 0.0, eta, 200)
        op = dense_reference(p)
        lams = spectrum(p)
        for k in (50, 100, 150, 200):
            v = eigenstate(p, k)
            assert np.linalg.norm(op @ v - lams[k] * v) <= 1e-10 * np.linalg.norm(op)


def test_solve_generic_frozen_spectrum():
    sol = solve(GBSParams(1.0, 0.0, 0.36, 5))
    assert sol.kind is SolutionKind.GENERIC
    expected = [0.6 * (2 * k - 5) / 2 for k in range(6)]
    np.testing.assert_allclose(sol.eigenvalues.real, expected, atol=1e-15)
    np.testing.assert_allclose(sol.eigenvalues.imag, 0.0, atol=1e-15)
    op = dense_reference(sol.params)
    for lam, v in zip(sol.eigenvalues, sol.eigenstates):
        assert np.linalg.norm(op @ v - lam * v) <= 1e-10 * np.linalg.norm(op)


def test_solve_hermitian_branch():
    sol = solve(GBSParams(1.0, 1.0, 0.5, 3))
    assert sol.kind is SolutionKind.DEGENERATE_A_PLUS_ZERO
    assert len(sol.eigenstates) == 4
    assert np.abs(sol.eigenvalues.imag).max() <= 1e-10


def test_near_hermitian_points_stay_within_the_residual_bound():
    # |A+| ~ 1e-9 is too large to drop as on the Hermitian branch at small m
    for m in (1, 2, 4):
        p = GBSParams(3.0, 3.0 * (1 + 3.16e-10), 0.5, m)
        sol = solve(p)
        assert sol.kind is SolutionKind.GENERIC
        op = dense_reference(p)
        for lam, v in zip(sol.eigenvalues, sol.eigenstates):
            assert np.linalg.norm(op @ v - lam * v) <= 1e-10 * np.linalg.norm(op)


def test_exact_hermitian_points_land_on_the_hermitian_branch():
    # rounding-level A+ of mu = nu*, gauged as (mu g*, nu g), at every m
    rng = np.random.default_rng(17)
    for mu0, eta in ((1.0, 0.4), (0.9 + 0.4j, 0.55), (3.0, 0.5), (0.05, 0.95)):
        for _ in range(20):
            g = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            mu = mu0 * g.conjugate()
            for m in (1, 2, 16, 120, 800):
                p = GBSParams(mu, mu.conjugate(), eta, m)
                kind = branch_kind(p, coefficient_triple(p, select_root(p)))
                assert kind is SolutionKind.DEGENERATE_A_PLUS_ZERO


def test_solve_single_level():
    sol = solve(GBSParams(1.0, 0.0, 0.5, 0))
    assert sol.eigenvalues.shape == (1,)
    assert sol.eigenvalues[0] == 0.0
    np.testing.assert_allclose(sol.eigenstates[0], basis_state(0, 1))


def test_solve_defective_branch():
    # mu nu = -eta/(4(1-eta)) collapses the whole spectrum onto zero
    p = GBSParams(1.0, -1.0, 0.8, 3)
    sol = solve(p)
    assert sol.kind is SolutionKind.DEFECTIVE_A_ZERO_ZERO
    assert np.abs(sol.eigenvalues).max() <= 1e-12
    assert len(sol.eigenstates) == 1
    op = dense_reference(p)
    assert np.linalg.norm(op @ sol.eigenstates[0]) <= 1e-10 * np.linalg.norm(op)
    with pytest.raises(ValueError):
        eigenstate_sum(p, 1)
    with pytest.raises(ValueError):
        binomial_phase_parameters(p)


@pytest.mark.parametrize(
    "p",
    [
        # |A0| = 1.67 against the old 1e-12 (|mu| + |nu| + 1) = 1e38
        GBSParams(1e-50, 1e50, 0.4, 3),
        # every scale near 1e-40: the old "+ 1" called this defective
        GBSParams(complex(1.02e-44, -2.08e-43), complex(7.3e-39, 2.2e-38), 2.5e-200, 4),
        # a subnormal eta: |A0| = 2.8e-155, which the twisted factorization
        # scales by 1/|A0|; the old threshold called it defective
        GBSParams(complex(7.47e-48, 2.07e-48), complex(3.26e-277, 2.29e-277), 7.98e-310, 7),
    ],
    ids=["lopsided", "tiny", "subnormal-eta"],
)
def test_defective_threshold_is_relative_to_the_terms_of_a_zero(p):
    sol = solve(p)
    assert sol.kind is SolutionKind.GENERIC
    assert len(sol.eigenstates) == p.m + 1
    assert compare(p, sol).passed


def test_exact_defective_points_stay_defective_at_every_scale():
    # mu nu = -2^-2 and eta = 1/2 put A0^2 = eta + 4(1-eta) mu nu at exactly
    # 0, for |mu| across the whole range [1e-50, 1e50]
    for j in range(-166, 167):
        p = GBSParams(2.0**j, -(2.0 ** (-j - 2)), 0.5, 4)
        kind = branch_kind(p, coefficient_triple(p, select_root(p)))
        assert kind is SolutionKind.DEFECTIVE_A_ZERO_ZERO, j


@pytest.mark.parametrize("m, k", [(30, 30), (60, 40)])
def test_exponential_form_rescales_past_the_double_range(m, k):
    # next to the Hermitian branch |A0/A+| = 2.2e8, so the unscaled series'
    # top amplitude ratio^k C(k, j) / sqrt(C(m, j)) would reach 1e250 at
    # (30, 30) and overflow at 1e326 at (60, 40)
    p = GBSParams(1.0, 1.0 + 1e-8, 0.5, m)
    state = eigenstate_exponential(p, k)
    assert np.all(np.isfinite(state))
    assert 1.0 - fidelity(eigenstate_sum(p, k), state) <= 1e-11
    delta = select_root(p)
    t = coefficient_triple(p, delta)
    ratio = mp.mpc(t.a_zero / t.a_plus)
    exact = [ratio**j * mp.binomial(k, j) / mp.sqrt(mp.binomial(m, j)) for j in range(k + 1)]
    norm = mp.sqrt(mp.fsum(abs(x) ** 2 for x in exact))
    expected = np.array([complex(x / norm) for x in exact])
    core = _exponential_form_core(t, k, m)
    assert not core[k + 1 :].any()
    np.testing.assert_allclose(core[: k + 1] / np.linalg.norm(core), expected, rtol=1e-12, atol=1e-300)


def test_generic_eigenbasis_linearly_independent():
    rng = np.random.default_rng(29)
    for _ in range(10):
        p = random_params(rng)
        sol = solve(p)
        if sol.kind is not SolutionKind.GENERIC:
            continue
        basis = np.column_stack(sol.eigenstates)
        smallest = np.linalg.svd(basis, compute_uv=False)[-1]
        assert smallest > 1e-10


@pytest.mark.parametrize("k", [5.5, 5.0, "5"])
def test_eigenstate_rejects_a_non_integer_index(k):
    # 5.5 used to reach numpy indexing and raise IndexError
    with pytest.raises(ValueError, match="eigenstate index must be an integer"):
        eigenstate(GBSParams(1.0, 0.3, 0.4, 10), k)


def test_eigenstate_takes_numpy_integer_indices():
    p = GBSParams(1.0, 0.3, 0.4, 10)
    np.testing.assert_array_equal(eigenstate(p, np.int64(5)), eigenstate(p, 5))
    np.testing.assert_array_equal(eigenstate_sum(p, np.int32(5)), eigenstate_sum(p, 5))


@pytest.mark.parametrize(
    "p",
    [
        GBSParams(1.0, 300.0, 0.4, 400),  # |nu/mu| = 300
        GBSParams(1.0, 0.3, 0.4, 1000),
        GBSParams(1.0, 0.3, 1e-6, 1000),
        GBSParams(1.0, 0.3, 0.9999, 1000),
        GBSParams(1.0, 0.0, 0.5, 200),  # nu = 0: the cores (the sweep's zero pivots: see below)
        GBSParams(1.0, 1.0 + 1e-9j, 0.4, 200),  # next to the Hermitian branch
    ],
    ids=["nu-over-mu-300", "m1000", "eta-1e-6", "eta-0.9999", "nu-zero", "near-hermitian"],
)
def test_twisted_states_in_the_overflow_and_edge_regimes(p):
    # unscaled, the recurrence overflows to NaN at |nu/mu| = 300, m = 400, and
    # its norm at (1, 0.3, 0.4, 1000); at nu = 0, where L is bidiagonal and
    # the sweep meets exact zero pivots, solve reads the cores instead, and
    # test_nu_zero_states_match_the_twisted_reference runs the sweep there
    sol = solve(p)
    assert sol.kind is SolutionKind.GENERIC
    states = np.column_stack(sol.eigenstates)
    assert np.all(np.isfinite(states))
    op = dense_reference(p)
    residuals = np.linalg.norm(op @ states - states * sol.eigenvalues, axis=0)
    assert residuals.max() <= 1e-10 * np.linalg.norm(op)
    for k in (0, 1, p.m // 2, p.m):
        np.testing.assert_array_equal(eigenstate(p, k), sol.eigenstates[k])


def test_rescaled_moduli_are_the_plain_products_up_to_one_power_of_two():
    # the twisted route's moduli are products of the ratios outward from the
    # twist r; where a state's products leave the double range the rescaled
    # form takes over, so it must give the same products, to the bit, up to
    # one exact power of two per state, and stay finite where they overflow
    rng = np.random.default_rng(3)
    m, count = 300, 7
    n = np.arange(m + 1)
    r = rng.integers(0, m + 1, count)
    below, up = n[:, None] < r, n[:, None] > r
    down = np.where(below, np.exp(rng.normal(0.0, 2.0, (m + 1, count))), 1.0)
    ups = np.where(up, np.exp(rng.normal(0.0, 2.0, (m + 1, count))), 1.0)
    plain = np.multiply.accumulate(down[::-1], axis=0)[::-1] * np.multiply.accumulate(ups, axis=0)
    assert np.isfinite(plain).all() and plain.min() > np.finfo(float).tiny
    scale = plain / _rescaled_moduli(down.copy(), ups.copy(), below, up)
    assert np.all(np.frexp(scale)[0] == 0.5)
    assert np.all(scale == scale[0])
    # 1e30 per step below r and 1e-30 above: |z_0 / z_r| alone is 1e30^r
    steep = _rescaled_moduli(np.where(below, 1e30, 1.0), np.where(up, 1e-30, 1.0), below, up)
    assert np.isfinite(steep).all() and 0.5 < steep.max(axis=0).min() and steep.max() < 2.0
    np.testing.assert_allclose(steep[0, r > 1], steep[1, r > 1] * 1e30, rtol=4 * np.finfo(float).eps)


def test_one_sided_moduli_take_the_rescaled_form_where_they_overflow():
    # the cores pass _moduli one side, from a start at row 0: where the
    # products stay finite they are the plain ones, and where they overflow
    # the rescaled form takes over
    rng = np.random.default_rng(5)
    m, count = 300, 7
    ups = np.exp(rng.normal(0.0, 2.0, (m + 1, count)))
    ups[0] = 2.0**14
    plain = np.multiply.accumulate(ups, axis=0)
    assert np.isfinite(plain).all()
    assert _moduli(ups.copy()).tobytes() == plain.tobytes()
    # 1e30 per step, then 0 past a core's support: the plain products
    # overflow, and inf * 0 past the support is nan
    steep = np.full((m + 1, 2), 1e30)
    steep[0] = 2.0**14
    steep[200:, 0] = 0.0
    w = _moduli(steep.copy())
    assert np.isfinite(w).all() and not w[200:, 0].any()
    assert 1.0 <= w[199, 0] < 2.0**16 and 1.0 <= w[-1, 1] < 2.0**16
    np.testing.assert_allclose(w[191:200, 0] / w[190:199, 0], 1e30, rtol=4 * np.finfo(float).eps)
    np.testing.assert_allclose(w[-9:, 1] / w[-10:-1, 1], 1e30, rtol=4 * np.finfo(float).eps)
    # a 1-d state goes the same way as a column
    assert _moduli(steep[:, 0].copy()).tobytes() == w[:, 0].tobytes()


def _log_core_moduli(x: float, k: int, m: int) -> np.ndarray:
    """log |core_k(n)| = n log x + log C(k, n) - log C(m, n) / 2, n = 0..k."""
    n = np.arange(k + 1)
    return (n * math.log(x) + gammaln(k + 1) - gammaln(n + 1) - gammaln(k - n + 1)
            - 0.5 * (gammaln(m + 1) - gammaln(n + 1) - gammaln(m - n + 1)))


def test_cores_stay_below_the_headroom_of_the_rotation():
    # _cores hand back moduli below 2^1010, so that eigenstate_sum's gemv of
    # up to 8192 columns of the unitary D(zeta) cannot overflow: a core that
    # peaks in [2^1010, 2^1024) is rescaled like one that overflows.  The top
    # cores of m = 300 peak near 2^(150 log2(1 + |x|^2)), so this grid of
    # |x| moves their peaks across that band
    m = 300
    crossed = 0
    for mod in np.linspace(10.2, 10.7, 11):
        tables = _core_tables(CoefficientTriple(1.0, 0.0, mod), m)
        cores = _cores(tables, np.arange(m + 1))
        assert np.isfinite(cores).all()
        assert np.abs(cores).max() < 2.0**1010
        for k in range(m - 40, m + 1):
            exact = _log_core_moduli(mod, k, m)
            crossed += 1010 <= exact.max() / math.log(2.0) < 1024
            assert _core(tables, k).tobytes() == cores[k, : k + 1].tobytes()
            # the same state as the closed form, up to the scale
            logs = np.log(np.abs(cores[k, : k + 1]))
            np.testing.assert_allclose(logs - logs.max(), exact - exact.max(), atol=1e-11)
    assert crossed >= 10


@pytest.mark.parametrize(
    "mod, eta, m",
    [(1e50, 0.5, 300), (1.0, 5e-324, 200), (1.0, math.nextafter(1.0, 0.0), 200), (3.0, 1e-300, 500),
     (1e-3, 0.999, 400), (0.096, 0.5, 300)],
)
def test_nu_zero_states_stay_finite_at_the_ends_of_the_ratio_range(mod, eta, m):
    # |x| = sqrt(eta / (1 - eta)) / |mu| runs from 1e-212 to 1e58 here: the
    # cores' products underflow or overflow, and the rescaled form takes over
    p = GBSParams(mod, 0.0, eta, m)
    sol = solve(p)
    assert sol.kind is SolutionKind.GENERIC
    assert np.isfinite(sol.eigenstates).all()
    report = compare(p, sol)
    assert report.max_residual <= report.residual_bound
    for k in (0, 1, m // 2, m - 1, m):
        for state in (eigenstate_sum(p, k), undisplaced_eigenstate(p, k)):
            assert np.isfinite(state).all()
            assert 1.0 - fidelity(state, sol.eigenstates[k]) <= 1e-14, k


# generic points for the point memo; (1, 0.3, 0.4) has a real positive
# delta, so its theta is -0.0
MEMO_POINTS = [
    GBSParams(1.0, 0.3, 0.4, 12),
    GBSParams(0.7 + 0.2j, 0.3 - 0.5j, 0.4, 20),
    GBSParams(-1.3 + 0.4j, 0.8j, 0.7, 20),
    GBSParams(0.2 - 0.1j, 1.5 + 0.3j, 0.15, 40),
    GBSParams(1.1j, 0.6, 0.85, 7),
]
FORMS = (eigenstate_sum, eigenstate_exponential)


def _fresh(p, k, form):
    """form(p, k) from a fresh frame, _cores and displacement(): the memo-free formula."""
    delta = select_root(p)
    zeta, triple = delta_to_zeta(delta, p.m), coefficient_triple(p, delta)
    core = _cores(_core_tables(triple, p.m), [k])[0] if form is eigenstate_sum else _exponential_form_core(triple, k, p.m)
    if delta == 0:  # D(zeta) = I
        core[k + 1 :] = 0.0
        return normalize_state(core)
    if form is eigenstate_sum:
        return normalize_state(displacement(zeta)[:, : k + 1] @ core[: k + 1])
    return normalize_state(displacement(zeta) @ core)


def test_eigenstate_forms_do_not_depend_on_the_memo():
    cold = {}
    for i, p in enumerate(MEMO_POINTS):
        for k in range(p.m + 1):
            for f in FORMS:
                _point.cache_clear()
                cold[i, k, f] = f(p, k)
                assert np.array_equal(cold[i, k, f], _fresh(p, k, f)), (i, k, f.__name__)
    for order in ("up", "down"):
        for i, p in enumerate(MEMO_POINTS):
            ks = range(p.m + 1) if order == "up" else range(p.m, -1, -1)
            for f in FORMS:
                for k in ks:
                    assert np.array_equal(f(p, k), cold[i, k, f]), (order, i, k, f.__name__)
    # two points interleaved: the one-entry memo is replaced on every call
    for (i, p), (j, q) in zip(enumerate(MEMO_POINTS), list(enumerate(MEMO_POINTS))[1:]):
        for k in range(max(p.m, q.m) + 1):
            for at, point in ((i, p), (j, q)):
                if k <= point.m:
                    for f in FORMS:
                        assert np.array_equal(f(point, k), cold[at, k, f]), (at, k, f.__name__)


@pytest.mark.parametrize("m", [0, 1, 2, 7, 60, 401])
@pytest.mark.parametrize("nu", [0.0, 0.3 - 0.5j], ids=["nu-zero", "nu-nonzero"])
def test_one_k_core_is_the_cores_prefix_bit_for_bit(m, nu):
    # the forms read core k off the point's tables; solve's nu = 0 rows and
    # the tests read it off _cores
    p = GBSParams(0.7 + 0.2j, nu, 0.4, m)
    tables = _core_tables(coefficient_triple(p, select_root(p)), m)
    for k in range(m + 1):
        assert _core(tables, k).tobytes() == _cores(tables, [k])[0, : k + 1].tobytes(), k


# groups of points equal under == (so one memo key), which differ only in the
# signs of zero parts of nu or mu
SIGNED_ZERO_GROUPS = [
    [GBSParams(mu, nu, 0.4, 9) for nu in (0.0, -0.0, complex(0.0, -0.0))] for mu in (1.0, 0.3 - 2.0j)
] + [
    [GBSParams(mu, nu, 0.4, 9) for mu in (complex(-1.0, 0.0), complex(-1.0, -0.0))] for nu in (0.3, 0.0, -0.3)
]


@pytest.mark.parametrize("group", SIGNED_ZERO_GROUPS, ids=lambda g: repr(g[0]))
def test_signed_zero_points_share_the_memo_and_its_bits(group):
    assert all(p == group[0] and hash(p) == hash(group[0]) for p in group)
    _point.cache_clear()
    for k in range(group[0].m + 1):
        for p in group:
            for f in FORMS:
                assert f(p, k).tobytes() == _fresh(p, k, f).tobytes(), (p, k, f.__name__)
    assert _point.cache_info().misses == 1


def test_displacement_stays_fresh_and_writable():
    zeta = delta_to_zeta(select_root(MEMO_POINTS[1]), MEMO_POINTS[1].m)
    first, second = displacement(zeta), displacement(zeta)
    assert first is not second and not np.shares_memory(first, second)
    assert first.flags.writeable and second.flags.writeable
    first[0, 0] = 7.0
    assert np.array_equal(displacement(zeta), second)


def test_the_memo_is_read_only():
    p = MEMO_POINTS[1]
    eigenstate_sum(p, 3)
    point = _point(p)
    assert _point.cache_info().currsize == 1
    for table in (point.rotation, point.tables.ratios, point.tables.phase):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


def test_a_signed_zero_theta_builds_the_same_rotation():
    # equal memo keys may differ in the sign of a zero theta
    assert delta_to_zeta(0.5 + 0j, 6).theta == 0.0
    assert math.copysign(1.0, delta_to_zeta(0.5 + 0j, 6).theta) == -1.0
    for m in (5, 6, 40):
        plus, minus = DisplacementParams(0.4, 0.0, m), DisplacementParams(0.4, -0.0, m)
        assert plus == minus and hash(plus) == hash(minus)
        assert displacement(plus).tobytes() == displacement(minus).tobytes()


@pytest.mark.parametrize(
    "p, kind",
    [
        (GBSParams(0.9 + 0.4j, 0.9 - 0.4j, 0.55, 6), SolutionKind.DEGENERATE_A_PLUS_ZERO),
        (GBSParams(0.9 + 0.4j, 0.9 - 0.4j, 0.55, 800), SolutionKind.DEGENERATE_A_PLUS_ZERO),
        (GBSParams(1.0, -0.25, 0.5, 4), SolutionKind.DEFECTIVE_A_ZERO_ZERO),
        (GBSParams(1.0, 0.3, 0.4, 12), SolutionKind.GENERIC),
    ],
    ids=["hermitian-m6", "hermitian-m800", "defective", "generic"],
)
def test_solve_and_eigenstate_leave_the_memo_empty(p, kind):
    # a kept m = 800 rotation would add ~10 MiB to every large solve's peak
    _point.cache_clear()
    assert solve(p).kind is kind
    eigenstate(p, 0)
    assert _point.cache_info().currsize == 0


@pytest.mark.parametrize(
    "p, count",
    [(GBSParams(1.0, 0.3j, 0.4, 6), 7), (GBSParams(1.0, 1.0, 0.4, 6), 7), (GBSParams(1.0, -0.25, 0.5, 6), 1)],
    ids=["generic", "hermitian", "defective"],
)
def test_solve_returns_its_states_as_one_array(p, count):
    # one state per row, the block the solver fills; compare reads it in place
    states = solve(p).eigenstates
    assert isinstance(states, np.ndarray)
    assert states.shape == (count, p.m + 1)


def _band_residuals(p, states, values):
    """|L v - lambda v| / |L|_F per row, from the three bands."""
    sub, diag, sup = bands(p)
    res = (diag - values[:, None]) * states
    res[:, 1:] += sub * states[:, :-1]
    res[:, :-1] += sup * states[:, 1:]
    return np.linalg.norm(res, axis=1) / operator_norm(p)


@pytest.mark.parametrize("m", [1, 2, 50, 400, 1000])
def test_nu_zero_states_match_the_twisted_reference(m):
    # at nu = 0 the root is delta = 0 and each state is its closed-form core;
    # the twisted factorization, which solve no longer runs there, is the
    # reference: the cores route must agree with it.  Both carry their phase
    # e^{i n theta} from fock.phase_ramp and their moduli from one rule,
    # _moduli's products of one-rounding ratios, which read below
    # 1e-16 |L|_F from m = 50 on and within one eps |L|_F at m <= 2, where a
    # state has only two or three entries to round
    ks = np.arange(m + 1) if m <= 50 else np.array([0, 1, m // 3, m // 2, m - 1, m])
    worst_cores = worst_twisted = 0.0
    for eta in (1e-6, 0.3, 0.999, 1.0 - 1e-6):
        for mod in (1e-3, 1.0, 1e3):
            for phi in (0.0, 2.1, -0.7, math.pi):
                p = GBSParams(mod * cmath.exp(1j * phi), 0.0, eta, m)
                assert select_root(p) == 0
                values = spectrum(p)[ks]
                cores = np.array([eigenstate(p, int(k)) for k in ks])
                twisted = _twisted_states(p, coefficient_triple(p, 0.0).a_zero, ks)
                for k, c, t in zip(ks, cores, twisted):
                    assert fidelity(c, t) >= 1.0 - 1e-14, (eta, mod, phi, k)
                worst_cores = max(worst_cores, _band_residuals(p, cores, values).max())
                worst_twisted = max(worst_twisted, _band_residuals(p, twisted, values).max())
    assert worst_cores <= (np.finfo(float).eps if m <= 2 else 1e-16)
    assert worst_twisted <= (1e-15 if m <= 2 else 1e-16)
    # the two routes round each ratio a few times (the cores: a sqrt, a
    # division and the factor k - n; the twisted route: the band, the pivot's
    # sweep and a division) and then multiply the same way, so neither should
    # come out more than twice as far from L's kernel as the other
    assert worst_cores <= 2.0 * worst_twisted


@pytest.mark.parametrize("nu", [0.0, -0.0, complex(0.0, -0.0)], ids=["zero", "minus-zero", "minus-zero-imag"])
@pytest.mark.parametrize(
    "mu, eta, m",
    [(1.0, 0.3, 0), (1.0, 0.3, 1), (0.3 - 2.0j, 0.9, 7), (2.0j, 1e-6, 60), (-1e3, 1.0 - 1e-6, 301)],
)
def test_nu_zero_solve_rows_are_eigenstate_bit_for_bit(mu, eta, m, nu):
    p = GBSParams(mu, nu, eta, m)
    sol = solve(p)
    assert sol.kind is SolutionKind.GENERIC and sol.delta_root == 0
    for k in range(m + 1):
        assert eigenstate(p, k).tobytes() == sol.eigenstates[k].tobytes(), k


@pytest.mark.parametrize(
    "p",
    [GBSParams(1.0, 0.3 + 0.3j, 0.4, m) for m in (1, 2, 9, 60, 300)]
    + [GBSParams(0.9 + 0.4j, 0.9 - 0.4j, 0.55, 40), GBSParams(1e-3, 40.0, 0.2, 33)],
    ids=["m1", "m2", "m9", "m60", "m300-two-chunks", "hermitian", "large-nu-over-mu"],
)
def test_eigenstate_rows_are_solve_rows_bit_for_bit(p):
    # eigenstate sweeps k with its mirror m - k but builds k alone; at m = 300
    # solve sweeps in two chunks
    sol = solve(p)
    for k in range(0, p.m + 1, 1 + p.m // 60):
        assert eigenstate(p, k).tobytes() == sol.eigenstates[k].tobytes(), k


def test_eigenstate_builds_only_its_own_state(monkeypatch):
    shapes = []

    def record(u):
        shapes.append(u.shape)
        return normalize_rows(u)

    monkeypatch.setattr("gbstates.solver.normalize_rows", record)
    p = GBSParams(1.0, 0.3j, 0.4, 9)
    for k in (0, 3, 9):
        eigenstate(p, k)
    assert shapes == [(1, 10)] * 3
    solve(p)
    assert shapes[3:] == [(10, 10)]


def test_nu_zero_never_runs_the_twisted_sweep(monkeypatch):
    def refuse(*args):
        raise AssertionError("the twisted sweep ran")

    monkeypatch.setattr("gbstates.solver._twisted_states", refuse)
    for p in (GBSParams(1.0, 0.0, 0.3, 40), GBSParams(0.5j, -0.0, 0.99, 7), GBSParams(1.0, 0.0, 0.5, 0)):
        assert solve(p).eigenstates.shape == (p.m + 1, p.m + 1)
        eigenstate(p, p.m // 2)
    with pytest.raises(AssertionError, match="twisted sweep ran"):
        eigenstate(GBSParams(1.0, 0.3, 0.4, 5), 2)


@pytest.mark.parametrize("form", FORMS)
def test_eigenstate_forms_at_delta_zero_build_no_rotation(form):
    # D(zeta) = I at delta = 0; built, it would be (m+1)^2 amplitudes, 244 MiB
    # at m = 4000, for one state of 4001
    tracemalloc.start()
    try:
        state = form(GBSParams(1.0, 0.0, 0.3, 4000), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert state.shape == (4001,)


def test_nu_zero_solve_peak_stays_near_its_output():
    # the cores are built and normalized in chunks of rows, like the twisted
    # states; unchunked they would peak near 2.6 times the output
    p = GBSParams(1.0, 0.0, 0.3, 2000)
    tracemalloc.start()
    try:
        states = solve(p).eigenstates
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * states.nbytes
