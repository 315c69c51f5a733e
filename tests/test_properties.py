"""Properties: every point of the drawn domain solves within the residual bound
or is rejected with ValueError, eigenstate(p, k) is solve's k-th state, and on
the generic branch it agrees with the finite-sum form; over |nu/mu| from 1e-3
to 1e3 the mirror Q maps state k onto state m - k; over the frame's domain
the constraint roots and the coefficient triple are M's eigenvector ratios and
Schur entries; the secondary root's frame only relabels state k as m - k;
and L's bands have the exact +-lambda symmetry the oracle folds on."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import dense_reference
from gbstates import oracle
from gbstates.displacement import delta_to_zeta, displacement
from gbstates.fock import fidelity
from gbstates.solver import (
    GBSParams,
    SolutionKind,
    bands,
    coefficient_triple,
    constraint_roots,
    eigenstate,
    eigenstate_sum,
    solve,
)

phases = st.floats(-math.pi, math.pi)


@st.composite
def points(draw):
    mu = draw(st.floats(0.01, 3.0)) * cmath.exp(1j * draw(phases))
    nu = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))) * cmath.exp(1j * draw(phases))
    eta = draw(st.floats(1e-6, 1.0 - 1e-6, exclude_min=True, exclude_max=True))
    m = draw(st.integers(1, 60))
    return GBSParams(mu=mu, nu=nu, eta=eta, m=m), draw(st.integers(0, m))


@given(points())
def test_solves_within_bound_or_rejects(point):
    p, k = point
    try:
        sol = solve(p)
    except ValueError:
        return
    op = dense_reference(p)
    states = np.column_stack(sol.eigenstates)
    lams = sol.eigenvalues[: len(sol.eigenstates)]
    residuals = np.linalg.norm(op @ states - states * lams[None, :], axis=0)
    assert residuals.max() <= 1e-10 * np.linalg.norm(op)
    if k < len(sol.eigenstates):
        np.testing.assert_array_equal(eigenstate(p, k), sol.eigenstates[k])
    else:
        with pytest.raises(ValueError):
            eigenstate(p, k)


@given(points())
def test_eigenstate_and_the_sum_form_agree_on_the_generic_branch(point):
    # eigenstate comes from the twisted factorization of L's bands,
    # eigenstate_sum from D(zeta) times the closed-form core: two routes
    # that share only the frame
    p, _ = point
    try:
        sol = solve(p)
    except ValueError:
        return
    if sol.kind is not SolutionKind.GENERIC:
        return
    for k, v in enumerate(sol.eigenstates):
        assert 1.0 - fidelity(v, eigenstate_sum(p, k)) <= 1e-12


@st.composite
def mirror_points(draw):
    """|mu| log-uniform over [1e-2, 1e2], |nu/mu| over [1e-3, 1e3] or nu = 0,
    arg(mu nu) over the whole circle, m up to 300 of either parity."""
    mu = 10 ** draw(st.floats(-2.0, 2.0)) * cmath.exp(1j * draw(phases))
    ratio = 10 ** draw(st.floats(-3.0, 3.0))
    # nu = |nu| e^{i (arg(mu nu) - arg mu)}
    nu = draw(st.sampled_from([0.0, ratio])) * abs(mu) * cmath.exp(1j * (draw(phases) - cmath.phase(mu)))
    eta = draw(st.floats(1e-6, 1.0 - 1e-6, exclude_min=True, exclude_max=True))
    return GBSParams(mu=mu, nu=nu, eta=eta, m=draw(st.integers(1, 300)))


def _mirrored(states: np.ndarray, t: complex) -> np.ndarray:
    """(Q x)_n = t^n (-1)^n x_{m-n} for each row x, t = nu/mu, formed in logs
    and scaled per row by its largest modulus, so that no t^n overflows."""
    n = np.arange(states.shape[1])
    with np.errstate(divide="ignore"):
        logs = n * (cmath.log(t) + 1j * math.pi) + np.log(states[:, ::-1])
    logs -= logs.real.max(axis=1, keepdims=True)
    return np.exp(logs)


@settings(max_examples=40, deadline=None)
@given(mirror_points())
def test_the_mirror_maps_state_k_onto_state_m_minus_k(p):
    # Q L Q^-1 = -L, so Q x_k solves L for lambda_{m-k} = -lambda_k: the
    # solver sweeps only downward and takes each state's upward pivots from
    # its mirror, so state m - k must be Q x_k to rounding; at nu = 0 Q is
    # singular and only the residual and single-state checks apply
    sol = solve(p)
    assume(sol.kind is SolutionKind.GENERIC)  # nu = mu* is the Hermitian branch
    m, states = p.m, sol.eigenstates
    op = dense_reference(p)
    residuals = np.linalg.norm(op @ states.T - states.T * sol.eigenvalues, axis=0)
    assert residuals.max() <= 1e-10 * np.linalg.norm(op)
    if p.nu:
        # Q scales entry n by |nu/mu|^n, which can lift a state's entries that
        # fell below the double range into its largest ones: compare where
        # state k's entry is a normal double
        normal = np.abs(states[:, ::-1]) >= np.finfo(float).tiny
        for k, v in enumerate(_mirrored(states, p.nu / p.mu)):
            assert fidelity(states[m - k][normal[k]], v[normal[k]]) >= 1.0 - 1e-12, k
    for k in {0, m - 1, m} | ({m // 2} if m % 2 == 0 else set()):
        np.testing.assert_array_equal(eigenstate(p, k), states[k])


@st.composite
def band_points(draw):
    """|mu| log-uniform over [1e-50, 1e50], |nu| over [1e-300, 1e50] or nu = 0,
    both phases over the whole circle, eta anywhere in (0, 1) or next to
    either end, m up to 3000."""
    mu = min(max(10 ** draw(st.floats(-50.0, 50.0)), 1e-50), 1e50) * cmath.exp(1j * draw(phases))
    nu = draw(st.one_of(st.just(0.0), st.floats(-300.0, 50.0).map(lambda x: min(10**x, 1e50))))
    edges = st.sampled_from([5e-324, 1e-300, 1e-12, 1.0 - 1e-12, math.nextafter(1.0, 0.0)])
    eta = draw(st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), edges))
    return GBSParams(mu=mu, nu=nu * cmath.exp(1j * draw(phases)), eta=eta, m=draw(st.integers(0, 3000)))


@settings(max_examples=300)
@given(band_points())
def test_bands_have_the_exact_plus_minus_lambda_symmetry(p):
    # the oracle folds T' = tridiag(e, d, e) on d[::-1] == -d and
    # e[::-1] == e and has no route for bands without them; the products
    # sub_n sup_n must stay finite
    sub, diag, sup = bands(p)
    e, prods = oracle._symmetrized(sub, sup)
    assert np.array_equal(diag[::-1], -diag)
    assert np.array_equal(e[::-1], e)
    assert np.all(np.isfinite(prods)) and np.all(np.isfinite(e))


@st.composite
def frame_points(draw):
    """|mu|, |nu| in [1e-2, 1e2], both phases over the whole circle, eta in [1e-3, 1 - 1e-3]."""
    mu = 10 ** draw(st.floats(-2.0, 2.0)) * cmath.exp(1j * draw(phases))
    nu = 10 ** draw(st.floats(-2.0, 2.0)) * cmath.exp(1j * draw(phases))
    return GBSParams(mu=mu, nu=nu, eta=draw(st.floats(1e-3, 1.0 - 1e-3)), m=1)


@given(frame_points())
def test_frame_is_the_schur_form_of_m(p):
    principal, secondary = constraint_roots(p)
    # equal moduli in exact arithmetic at a tie; allow their rounding
    assert abs(principal) <= abs(secondary) * (1.0 + 1e-15)
    for delta in (principal, secondary):
        assert abs(coefficient_triple(p, delta).a_minus) <= 1e-13 * p.scale
    disc = p.eta + 4.0 * (1.0 - p.eta) * p.mu * p.nu
    # inside the defective floor the roots are merged on purpose
    if abs(disc) > 1e-14 * (p.eta + 4.0 * (1.0 - p.eta) * abs(p.mu) * abs(p.nu)):
        a_zero = coefficient_triple(p, principal).a_zero
        assert abs(a_zero - cmath.sqrt(disc + 0j)) <= 1e-13 * p.scale


@st.composite
def verify_points(draw):
    """The domain of verification.random_parameter_draws, generic or Hermitian:
    |mu| in [0.05, 2], |nu| <= 2 or nu = mu*, eta in [0.05, 0.95], m in 1..12."""
    mu = draw(st.floats(0.05, 2.0)) * cmath.exp(1j * draw(phases))
    if draw(st.booleans()):
        nu = mu.conjugate()
    else:
        nu = draw(st.floats(0.0, 2.0)) * cmath.exp(1j * draw(phases))
    return GBSParams(mu=mu, nu=nu, eta=draw(st.floats(0.05, 0.95)), m=draw(st.integers(1, 12)))


@given(verify_points())
def test_the_secondary_root_reverses_the_principal_ladder(p):
    # the frame of the secondary root, built here from the public API, has
    # A0 -> -A0, so its state k is the solver's state m - k
    principal, secondary = constraint_roots(p)
    a_zero = coefficient_triple(p, principal).a_zero
    triple = coefficient_triple(p, secondary)
    assert abs(triple.a_zero + a_zero) <= 1e-13 * p.scale
    kind = solve(p).kind
    if kind is SolutionKind.DEFECTIVE_A_ZERO_ZERO:
        return
    m = p.m
    d = displacement(delta_to_zeta(secondary, m))
    for k in range(m + 1):
        if kind is SolutionKind.GENERIC:
            x = triple.a_zero / triple.a_plus
            core = [x**n * math.comb(k, n) / math.sqrt(math.comb(m, n)) for n in range(k + 1)]
            state = d[:, : k + 1] @ np.array(core)
        else:
            state = d[:, k]
        assert 1.0 - fidelity(state, eigenstate(p, m - k)) <= 1e-12
