import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import annihilation_operator
from gbstates.analysis import (
    REFERENCE_DIM_CAP,
    KRule,
    LimitSchedule,
    _reference_dim,
    coherent_amplitude_discrepancy,
    embed,
    number_limit_scan,
    photon_statistics,
    squeezed_eigenstate,
    squeezed_limit_scan,
    time_evolve,
)
from gbstates.binomial import BinomialParams, binomial_amplitudes
from gbstates.fock import basis_state, fidelity
from gbstates.solver import GBSParams, eigenstate, solve


def _coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """e^{-|alpha|^2/2} alpha^n / sqrt(n!), n < dim, at 40 digits."""
    with mp.workdps(40):
        a = mp.mpc(alpha)
        t = mp.exp(-abs(a) ** 2 / 2)
        amps = []
        for n in range(dim):
            amps.append(complex(t))
            t = t * a / mp.sqrt(n + 1)
    return np.array(amps)


def _ladder_residual(mu, nu, lam, v) -> float:
    """|(mu a + nu a^dag - lam) v| on the truncation, read off the two bands."""
    root = np.sqrt(np.arange(1, len(v)))
    r = -lam * v
    r[:-1] += mu * root * v[1:]
    r[1:] += nu * root * v[:-1]
    return float(np.linalg.norm(r))


# coherent references are the nu = 0 squeezed eigenstates: mu a v = lam v
def test_coherent_vacuum():
    v = squeezed_eigenstate(1.0, 0.0, 0.0)
    assert v[0] == pytest.approx(1.0, abs=1e-15)
    assert np.abs(v[1:]).max() == 0.0


def test_coherent_mean_photon_number():
    v = squeezed_eigenstate(1.0, 0.0, 1.0)
    stats = photon_statistics(v)
    assert stats.mean == pytest.approx(1.0, abs=1e-10)
    assert stats.mandel_q == pytest.approx(0.0, abs=1e-8)


def test_coherent_is_annihilation_eigenstate():
    alpha = 1.3 * np.exp(0.4j)
    v = squeezed_eigenstate(1.0, 0.0, alpha)
    a = annihilation_operator(len(v) - 1)
    assert np.linalg.norm(a @ v - alpha * v) <= 1e-10


def test_squeezed_reduces_to_coherent_when_nu_zero():
    lam = 0.8 - 0.2j
    got = squeezed_eigenstate(2.0, 0.0, 2.0 * lam)  # mu a v = 2 lam v -> a v = lam v
    np.testing.assert_allclose(got, _coherent_amplitudes(lam, len(got)), rtol=0, atol=1e-15)


def test_squeezed_vacuum_parity():
    v = squeezed_eigenstate(1.0, 0.3, 0.0)
    assert np.abs(v[1::2]).max() == 0.0
    assert abs(v[2]) > 0.0


def test_squeezed_residual():
    mu, nu, lam = 1.0, 0.5, 0.4
    v = squeezed_eigenstate(mu, nu, lam)
    a = annihilation_operator(len(v) - 1)
    op = mu * a + nu * a.conj().T
    assert np.linalg.norm(op @ v - lam * v) <= 1e-9


def test_squeezed_requires_convergent_ratio():
    with pytest.raises(ValueError):
        squeezed_eigenstate(1.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        squeezed_eigenstate(0.0, 0.5, 0.3)


def test_squeezed_rejects_too_small_dimension():
    # slow decay at |nu/mu| -> 1 overwhelms the default truncation
    with pytest.raises(ValueError):
        squeezed_eigenstate(1.0, 0.97, 0.0)


def test_photon_statistics_binomial_and_fock():
    stats = photon_statistics(binomial_amplitudes(BinomialParams(0.3, 40)))
    assert stats.mean == pytest.approx(12.0, abs=1e-10)
    assert stats.variance == pytest.approx(8.4, abs=1e-9)
    assert stats.mandel_q == pytest.approx(-0.3, abs=1e-10)

    fock = photon_statistics(basis_state(3, 8))
    assert fock.variance == pytest.approx(0.0, abs=1e-14)
    assert fock.mandel_q == pytest.approx(-1.0, abs=1e-12)


def test_photon_statistics_vacuum_mandel_undefined():
    stats = photon_statistics(basis_state(0, 5))
    assert stats.mandel_q is None
    assert stats.mean == 0.0


@pytest.mark.parametrize(
    "call, bound",
    [
        (lambda: squeezed_eigenstate(1.0, 0.0, math.nan), "lam must be finite"),
        (lambda: squeezed_eigenstate(1.0, 0.0, complex(0.5, math.inf)), "lam must be finite"),
        (lambda: squeezed_eigenstate(1.0, 0.3, math.nan), "lam must be finite"),
        (lambda: squeezed_eigenstate(math.nan, 0.3, 0.5), "mu must be finite"),
        (lambda: photon_statistics([0.0, 0.0]), "finite nonzero norm"),
        (lambda: photon_statistics([1.0, math.nan]), "finite nonzero norm"),
    ],
    ids=["coherent-nan", "coherent-inf", "squeezed-lam", "squeezed-mu", "stats-zero", "stats-nan"],
)
def test_helpers_name_the_bad_input(call, bound):
    with pytest.raises(ValueError, match=bound):
        call()


@pytest.mark.parametrize(
    "call, dim",
    [
        (lambda: squeezed_eigenstate(1.0, 0.0, 1e200), "inf"),
        (lambda: squeezed_eigenstate(1.0, 0.0, 1e5), "40000000060"),
        (lambda: squeezed_eigenstate(1e-300, 0.0, 0.5), "inf"),
        (lambda: squeezed_eigenstate(1e-8, 0.0, 0.5), "10000000000000060"),
    ],
    ids=["coherent-overflow", "coherent-596GiB", "squeezed-overflow", "squeezed-142PiB"],
)
def test_reference_states_name_the_dimension_cap(call, dim):
    # each used to raise OverflowError or MemoryError, or to try a huge allocation
    with pytest.raises(ValueError, match=f"needs dimension {dim}, above the cap {REFERENCE_DIM_CAP}"):
        call()


def test_reference_dim_cap_boundary():
    assert REFERENCE_DIM_CAP == 2**26
    assert _reference_dim(16777201.0) == REFERENCE_DIM_CAP  # 4 * 16777201 + 60
    with pytest.raises(ValueError, match="needs dimension 67108868"):
        _reference_dim(16777201.5)


@pytest.mark.parametrize(
    "mu, nu, lam",
    [(1.0, 0.5, 60.0), (1.0, 0.0, 39.0), (1.0, 0.0, 100.0)],
    ids=["squeezed-overflow", "coherent-underflow", "coherent-d40060"],
)
def test_squeezed_eigenstate_rescales_as_it_climbs(mu, nu, lam):
    # C_n passes 1e200 on the way up at each point, and the closed form's
    # e^{-|alpha|^2/2} underflows to 0 from |alpha| = 39 up; a NaN or zero
    # state must not pass the truncation check
    v = squeezed_eigenstate(mu, nu, lam)
    assert np.isfinite(v).all()
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert _ladder_residual(mu, nu, lam, v) <= 1e-9
    if nu == 0.0:
        mean = float(np.sum(np.arange(len(v)) * np.abs(v) ** 2))
        assert mean == pytest.approx(lam * lam, rel=1e-12)


@settings(max_examples=60)
@given(
    mod_mu=st.floats(0.5, 2.0),
    ratio_nu=st.floats(0.0, 0.95),
    ratio_lam=st.floats(0.0, 60.0),
    phases=st.tuples(*[st.floats(-math.pi, math.pi)] * 3),
)
def test_squeezed_eigenstate_solves_or_names_the_dimension(mod_mu, ratio_nu, ratio_lam, phases):
    mu, nu, lam = (r * cmath.exp(1j * t) for r, t in zip((mod_mu, ratio_nu * mod_mu, ratio_lam * mod_mu), phases))
    try:
        v = squeezed_eigenstate(mu, nu, lam)
    except ValueError as exc:
        assert "dimension" in str(exc)
        return
    assert np.isfinite(v).all()
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert _ladder_residual(mu, nu, lam, v) <= 1e-9


@settings(max_examples=40)
@given(
    mod_mu=st.floats(0.5, 2.0),
    mod_alpha=st.floats(0.0, 20.0),
    phases=st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
)
def test_nu_zero_eigenstate_is_the_coherent_state(mod_mu, mod_alpha, phases):
    mu = mod_mu * cmath.exp(1j * phases[0])
    alpha = mod_alpha * cmath.exp(1j * phases[1])
    v = squeezed_eigenstate(mu, 0.0, mu * alpha)
    np.testing.assert_allclose(v, _coherent_amplitudes(alpha, len(v)), rtol=0, atol=1e-14)


def test_embed_rejects_shrinking():
    with pytest.raises(ValueError):
        embed(np.ones(5), 4)


def test_time_evolve_is_diagonal_phase():
    v = binomial_amplitudes(BinomialParams(0.4, 6))
    assert np.array_equal(time_evolve(v, 1.0, 0.0), v)
    full_period = time_evolve(v, 1.0, 2 * math.pi)
    assert fidelity(full_period, v) == pytest.approx(1.0, abs=1e-14)
    # norm and photon statistics untouched
    evolved = time_evolve(v, 0.7, 3.1)
    assert np.linalg.norm(evolved) == pytest.approx(np.linalg.norm(v), abs=1e-15)
    np.testing.assert_allclose(
        photon_statistics(evolved).distribution, photon_statistics(v).distribution, atol=1e-15
    )


def test_time_evolution_equals_phase_shifted_family_member():
    eta, m, k = 0.3, 8, 4
    phi, omega, t = 0.6, 1.3, 2.1
    state = solve(GBSParams(np.exp(1j * phi), 0.0, eta, m)).eigenstates[k]
    evolved = time_evolve(state, omega, t)
    rebuilt = solve(GBSParams(np.exp(1j * (phi + omega * t)), 0.0, eta, m)).eigenstates[k]
    assert fidelity(evolved, rebuilt) >= 1 - 1e-12


def test_number_limit_scan_monotone():
    rows = number_limit_scan(1.0, 0.4, 6, 2, [0.9, 0.99, 0.999, 0.9999, 1 - 1e-6])
    fids = [f for _, f in rows]
    assert all(b >= a for a, b in zip(fids, fids[1:]))
    assert fids[-1] >= 0.9999
    rows_mid = number_limit_scan(1.0, 0.0, 6, 3, [0.5, 0.99])
    assert rows_mid[1][1] > rows_mid[0][1]


def test_number_limit_scan_validation():
    with pytest.raises(ValueError, match="eigenstate index 9 outside 0..6"):
        number_limit_scan(1.0, 0.0, 6, 9, [0.5])
    with pytest.raises(ValueError):
        number_limit_scan(1.0, 0.0, 6, 2, [1.5])
    # the defective branch (eta + 4 (1 - eta) mu nu = 0) carries only k = 0
    with pytest.raises(ValueError, match="defective"):
        number_limit_scan(1.0, -0.25, 4, 2, [0.5])
    assert number_limit_scan(1.0, -0.25, 4, 0, [0.5])[0][1] > 0.0


def test_number_limit_scan_large_m_near_eta_one():
    # these cores used to overflow (IndexError) at m = 200 and eta >= 0.99
    for k in (50, 100, 150):
        rows = number_limit_scan(1.0, 0.0, 200, k, [0.99, 0.9999])
        fids = [f for _, f in rows]
        assert 0.0 < fids[0] < fids[1] <= 1.0


def test_k_rule_indexing_and_validation():
    assert KRule("center", 1).index(10) == 6
    assert KRule("top-offset", 2).index(10) == 8
    assert KRule("bottom", 3).index(10) == 3
    with pytest.raises(ValueError):
        KRule("middle")
    with pytest.raises(ValueError):
        KRule("bottom", 11).index(10)


def test_limit_schedule_validation():
    rule = KRule("center")
    with pytest.raises(ValueError):
        LimitSchedule(alpha=0.0, m_values=(10,), k_rule=rule)
    with pytest.raises(ValueError):
        LimitSchedule(alpha=1.0, m_values=(), k_rule=rule)
    with pytest.raises(ValueError):
        LimitSchedule(alpha=1.0, m_values=(20, 10), k_rule=rule)
    with pytest.raises(ValueError):
        LimitSchedule(alpha=4.0, m_values=(10, 20), k_rule=rule)  # eta >= 1 at m = 10


@pytest.mark.parametrize("offset", [0.5, 1.0, "1"])
def test_k_rule_rejects_a_non_integer_offset(offset):
    with pytest.raises(ValueError, match="offset must be an integer"):
        KRule("center", offset)


def test_k_rule_takes_numpy_integer_offsets():
    assert KRule("center", np.int64(1)).index(10) == 6
    rows = squeezed_limit_scan(1.0, 0.3, LimitSchedule(1.0, (30,), KRule("center", np.int32(1))))
    assert rows[0][0] == 30


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_limit_schedule_names_a_bad_alpha(alpha):
    # nan <= 0 is false, so nan used to get past the sign check and fail on eta
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        LimitSchedule(alpha=alpha, m_values=(50,), k_rule=KRule("center"))


@pytest.mark.parametrize(
    "mu, nu, rule, target",
    [(1.0, 0.3j, KRule("center"), 0.5), (np.exp(0.8j), 0.0, KRule("top-offset"), 1.0)],
    ids=["squeezed", "coherent"],
)
def test_squeezed_scan_residual_is_the_dense_product(mu, nu, rule, target):
    # the scan reads the residual off the two bands of a and a^dag; here the
    # dense (mu a + nu a^dag - target) v, with alpha = 1 and target its limit
    schedule = LimitSchedule(alpha=1.0, m_values=(40, 130), k_rule=rule)
    reference = squeezed_eigenstate(mu, nu, target)
    for m, residual, _ in squeezed_limit_scan(mu, nu, schedule):
        dim = max(m + 1, len(reference))
        v = embed(eigenstate(GBSParams(mu, nu, schedule.eta(m), m), rule.index(m)), dim)
        a = annihilation_operator(dim - 1)
        dense = np.linalg.norm((mu * a + nu * a.conj().T) @ v - target * v)
        bound = 1e-14 * np.linalg.norm(v) * (abs(mu) + abs(nu)) * math.sqrt(dim)
        assert abs(residual - dense) <= bound


def test_squeezed_limit_scan_center_rule():
    schedule = LimitSchedule(alpha=1.0, m_values=(30, 60), k_rule=KRule("center"))
    rows = squeezed_limit_scan(1.0, 0.3, schedule)
    assert rows[1][1] < rows[0][1]  # residual falls
    assert rows[1][2] > rows[0][2]  # fidelity rises


def test_squeezed_limit_scan_bottom_rule_reaches_vacuum():
    # offset 2 keeps the test nontrivial (offset 0 is exactly the vacuum)
    schedule = LimitSchedule(alpha=1.0, m_values=(100, 400), k_rule=KRule("bottom", 2))
    rows = squeezed_limit_scan(1.0, 0.0, schedule)
    assert rows[-1][2] > rows[0][2]
    assert rows[-1][2] >= 0.999


def test_squeezed_limit_scan_top_rule_with_phase():
    # nu = 0, mu = e^{i phi}: the top family approaches the coherent state of
    # amplitude alpha e^{-i phi} (checked through the mu a eigenvalue alpha)
    phi = 0.8
    mu = complex(math.cos(phi), math.sin(phi))
    schedule = LimitSchedule(alpha=1.0, m_values=(60, 150), k_rule=KRule("top-offset"))
    rows = squeezed_limit_scan(mu, 0.0, schedule)
    assert rows[-1][2] > rows[0][2]
    assert rows[-1][2] >= 0.99


def test_squeezed_limit_scan_top_rule_needs_nu_zero():
    schedule = LimitSchedule(alpha=1.0, m_values=(30,), k_rule=KRule("top-offset"))
    with pytest.raises(ValueError):
        squeezed_limit_scan(1.0, 0.2, schedule)
    with pytest.raises(ValueError):
        squeezed_limit_scan(1.0, 1.2, LimitSchedule(alpha=1.0, m_values=(30,), k_rule=KRule("center")))


def test_amplitude_discrepancy_verdict():
    out = coherent_amplitude_discrepancy(1.0, (30, 60))
    assert out["verdict"] == "alpha/2"
    assert out["fidelity_alpha_half"][-1] > out["fidelity_alpha_over_sqrt2"][-1]
    assert out["fidelity_alpha_half"][-1] > out["fidelity_alpha_half"][0]
