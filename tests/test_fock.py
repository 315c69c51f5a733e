import math

import numpy as np
import pytest

from conftest import annihilation_operator
from gbstates.fock import (
    basis_state,
    commutator,
    fidelity,
    hp_generators,
    normalize_state,
)


def test_annihilation_smallest_cases():
    assert annihilation_operator(0).shape == (1, 1)
    assert np.all(annihilation_operator(0) == 0)

    a2 = annihilation_operator(2)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = math.sqrt(2)
    np.testing.assert_array_equal(a2, expected)


def test_number_identity_from_ladder_product():
    a = annihilation_operator(3)
    np.testing.assert_allclose(a.conj().T @ a, np.diag([0, 1, 2, 3]), atol=1e-15)


def test_negative_cap_rejected():
    for op in (annihilation_operator, hp_generators):
        with pytest.raises(ValueError):
            op(-1)


def test_hp_spin_half():
    j0, jp, jm = hp_generators(1)
    np.testing.assert_array_equal(j0, np.diag([0.5, -0.5]))
    assert jp[0, 1] == 1.0
    assert np.count_nonzero(jp) == 1
    np.testing.assert_array_equal(jm, jp.conj().T)


def test_hp_m2_superdiagonal():
    # sqrt((n+1)(2-n)) = sqrt(2) for both n = 0 and n = 1
    _, jp, _ = hp_generators(2)
    np.testing.assert_allclose(jp[0, 1], math.sqrt(2), rtol=0, atol=1e-16)
    np.testing.assert_allclose(jp[1, 2], math.sqrt(2), rtol=0, atol=1e-16)


def test_su2_commutators_up_to_m40():
    for m in range(41):
        j0, jp, jm = hp_generators(m)
        assert np.linalg.norm(commutator(j0, jp) - jp) <= 1e-12
        assert np.linalg.norm(commutator(j0, jm) + jm) <= 1e-12
        assert np.linalg.norm(commutator(jp, jm) - 2 * j0) <= 1e-12


def test_raising_operator_nilpotent_exactly():
    for m in (1, 5, 12):
        _, jp, _ = hp_generators(m)
        power = np.linalg.matrix_power(jp, m + 1)
        assert np.abs(power).max() == 0.0


def test_norm_and_fidelity_basics():
    e0 = basis_state(0, 4)
    e1 = basis_state(1, 4)
    assert np.linalg.norm(normalize_state(e0 + e1)) == pytest.approx(1.0, abs=1e-15)
    assert fidelity(e0, e0) == pytest.approx(1.0)
    assert fidelity(e0, e1) == pytest.approx(0.0)
    # phase invariance
    phase = np.exp(0.7j)
    assert fidelity(e0 + e1, phase * (e0 + e1)) == pytest.approx(1.0, abs=1e-15)


def test_fidelity_errors():
    with pytest.raises(ValueError):
        fidelity(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        fidelity(np.zeros(3), np.ones(3))


def test_commutator_truncation_defect():
    m = 4
    n_op = np.diag(np.arange(m + 1)).astype(complex)
    assert np.abs(commutator(n_op, n_op)).max() == 0.0
    # truncation defect of [a, a+]: identity except -(m+1) in the corner
    a = annihilation_operator(m)
    defect = np.eye(m + 1, dtype=complex)
    defect[m, m] = -(m + 1) + 1
    np.testing.assert_allclose(commutator(a, a.conj().T), defect, atol=1e-13)
    with pytest.raises(ValueError):
        commutator(n_op, np.eye(2))


def test_normalize_state_phase_convention():
    v = np.array([0.0, -2.0j, 1.0])
    u = normalize_state(v)
    assert u[1].imag == 0.0 and u[1].real > 0.0
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        normalize_state(np.zeros(3))


def test_normalize_state_survives_entries_beyond_square_overflow():
    # the squared norm of 1e200 overflows; scaling by the largest entry first
    # must still give the exact direction
    u = normalize_state(np.array([1e-300, 3e200j, -4e200]))
    np.testing.assert_allclose(u, [0.0, 0.6, 0.8j], atol=1e-16)


@pytest.mark.parametrize("peak", [1e-310, 1e300, 1.0], ids=["subnormal", "huge", "unit"])
def test_normalize_state_rows_at_every_scale(peak):
    # the exact power-of-two scaling keeps a subnormal row's squares from
    # underflowing and a huge row's from overflowing; one state alone takes
    # the 1-d path, which divides by its largest modulus, and must agree
    rng = np.random.default_rng(7)
    rows = (rng.normal(size=(3, 9)) + 1j * rng.normal(size=(3, 9))) * peak / 4.0
    rows[:, rng.integers(0, 9)] = peak * np.exp(0.4j)
    assert np.abs(rows).max() == pytest.approx(peak, rel=1e-12)
    for u in (normalize_state(rows), normalize_state(rows[:1])):
        assert np.all(np.isfinite(u))
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, rtol=0, atol=4e-16)
        assert np.all(u[:, 0].imag == 0.0) and np.all(u[:, 0].real > 0.0)
    np.testing.assert_allclose(normalize_state(rows[0]), normalize_state(rows[:1])[0], rtol=0, atol=4e-16)


def test_normalize_state_leads_with_the_first_entry_above_1e_minus_12():
    # entries below 1e-12 of the largest are passed over for the phase
    v = np.array([3e-13j, -9e-13, 2e-12 * np.exp(1.1j), -1.0j, 0.5])
    for u in (normalize_state(v), normalize_state(np.stack([v, 2 * v]))[1]):
        assert u[2].imag == 0.0 and u[2].real > 0.0
        np.testing.assert_allclose(u * np.exp(1.1j) * np.linalg.norm(v), v, rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="cannot normalize the zero vector"):
        normalize_state(np.stack([v, np.zeros(5)]))


def test_normalize_state_gives_a_row_the_same_bits_alone_as_in_a_stack():
    # what lets eigenstate(p, k), a chunk of two rows, match solve's chunks
    rng = np.random.default_rng(11)
    for n in (2, 3, 17, 64, 301):
        scale = 10.0 ** rng.uniform(-300, 300, size=(6, 1))
        stack = (rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))) * scale
        stack[:, 0] *= 1e-14  # some rows lead with a later entry
        rows = normalize_state(stack)
        for i in range(len(stack)):
            np.testing.assert_array_equal(normalize_state(stack[i : i + 1])[0], rows[i])


def test_basis_state_bounds():
    with pytest.raises(ValueError):
        basis_state(3, 3)
    with pytest.raises(ValueError):
        basis_state(-1, 3)
