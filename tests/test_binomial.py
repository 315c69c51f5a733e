import math

import numpy as np
import pytest

from conftest import hp_generators
from gbstates.analysis import embed, squeezed_eigenstate
from gbstates.binomial import (
    BinomialParams,
    binomial_amplitudes,
    binomial_displacement_form,
    ladder_residual,
)
from gbstates.fock import basis_state, fidelity


def test_params_validation():
    with pytest.raises(ValueError):
        BinomialParams(eta=-0.1, m=3)
    with pytest.raises(ValueError):
        BinomialParams(eta=1.1, m=3)
    with pytest.raises(ValueError):
        BinomialParams(eta=0.5, m=-1)
    for m in (4.0, 2.5):
        with pytest.raises(ValueError, match="photon cap must be an integer"):
            BinomialParams(eta=0.3, m=m)
    assert BinomialParams(eta=0.3, m=np.int64(4)).m == 4
    # m + 1 amplitudes per state, as for GBSParams
    assert BinomialParams(eta=0.5, m=2**26 - 1).m == 2**26 - 1
    with pytest.raises(ValueError, match="photon cap m = 67108864 needs 67108865 amplitudes per state"):
        BinomialParams(eta=0.5, m=2**26)


def test_endpoints_give_exact_number_states():
    np.testing.assert_array_equal(binomial_amplitudes(BinomialParams(1.0, 3)), basis_state(3, 4))
    np.testing.assert_array_equal(binomial_amplitudes(BinomialParams(0.0, 3)), basis_state(0, 4))


def test_hand_evaluated_amplitudes_m2():
    got = binomial_amplitudes(BinomialParams(0.5, 2))
    np.testing.assert_allclose(got, [0.5, math.sqrt(0.5), 0.5], atol=2e-16)


def test_moments_match_binomial_formulas():
    # direct summation over the distribution vs m*eta and m*eta*(1-eta)
    amps = binomial_amplitudes(BinomialParams(0.3, 50))
    p = np.abs(amps) ** 2
    n = np.arange(51)
    mean = float(np.sum(n * p))
    var = float(np.sum(n * n * p) - mean * mean)
    assert mean == pytest.approx(50 * 0.3, abs=1e-10)
    assert var == pytest.approx(50 * 0.3 * 0.7, abs=1e-9)


def test_distribution_termwise_against_exact_combinatorics():
    for m in (1, 7, 33, 60):
        for eta in (0.1, 0.5, 0.9):
            dist = np.abs(binomial_amplitudes(BinomialParams(eta, m))) ** 2
            exact = np.array([math.comb(m, n) * eta**n * (1 - eta) ** (m - n) for n in range(m + 1)])
            assert np.abs(dist - exact).max() <= 1e-14
            assert abs(dist.sum() - 1.0) <= 1e-12


def test_ladder_residual_small():
    assert ladder_residual(BinomialParams(0.5, 1)) <= 1e-14
    assert ladder_residual(BinomialParams(0.25, 10)) <= 1e-12


def test_ladder_residual_equals_su2_form():
    # N = m/2 - J0 turns the ladder operator into the (negated) su(2) form,
    # so the two residual norms coincide
    for m in (1, 12, 60):
        p = BinomialParams(0.35, m)
        v = binomial_amplitudes(p)
        j0, jp, _ = hp_generators(p.m)
        se, sq = math.sqrt(p.eta), math.sqrt(1 - p.eta)
        su2_residual = np.linalg.norm((se * j0 - sq * jp) @ v + se * p.m / 2 * v)
        assert abs(su2_residual - ladder_residual(p)) <= 1e-13


def test_ladder_residual_needs_open_interval():
    with pytest.raises(ValueError):
        ladder_residual(BinomialParams(0.0, 4))
    with pytest.raises(ValueError):
        ladder_residual(BinomialParams(1.0, 4))


def test_displacement_form_two_level():
    got = binomial_displacement_form(BinomialParams(0.5, 1))
    np.testing.assert_allclose(got, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-15)


def test_displacement_form_matches_amplitudes():
    p = BinomialParams(0.2, 8)
    assert fidelity(binomial_displacement_form(p), binomial_amplitudes(p)) >= 1 - 1e-12


def test_displacement_form_vacuum_limit():
    v = binomial_displacement_form(BinomialParams(1e-10, 5))
    assert fidelity(v, basis_state(0, 6)) >= 1 - 1e-9


def test_displacement_form_needs_open_interval():
    with pytest.raises(ValueError):
        binomial_displacement_form(BinomialParams(0.0, 4))


def test_grid_properties_subset():
    # spot checks of the full eta x m grid exercised by the acceptance suite
    for m in (5, 23, 60):
        for eta in (0.1, 0.4, 0.9):
            p = BinomialParams(eta, m)
            assert ladder_residual(p) <= 1e-12
            assert fidelity(binomial_displacement_form(p), binomial_amplitudes(p)) >= 1 - 1e-12


def test_poisson_limit_toward_coherent_state():
    # eta = 1/m with alpha = 1: fidelity against the coherent state rises
    fids = []
    for m in (50, 100, 200, 400):
        amps = binomial_amplitudes(BinomialParams(1.0 / m, m))
        ref = squeezed_eigenstate(1.0, 0.0, 1.0)  # the coherent state of amplitude 1
        dim = max(len(amps), len(ref))
        fids.append(fidelity(embed(amps, dim), embed(ref, dim)))
    assert all(b > a for a, b in zip(fids, fids[1:]))
    assert fids[-1] >= 0.999


def test_number_operator_expectation_consistency():
    # <N> computed two ways on the same state
    p = BinomialParams(0.6, 9)
    v = binomial_amplitudes(p)
    mean = float(np.real(np.vdot(v, np.arange(p.m + 1) * v)))
    assert mean == pytest.approx(p.m * p.eta, abs=1e-12)
