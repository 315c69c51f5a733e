import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbstates import oracle
from gbstates.oracle import NonConvergenceError, _log_det_derivative, compare, dense_spectrum
from gbstates.solver import GBSParams, SolutionKind, build_operator, solve


def sorted_c(values):
    return np.sort_complex(np.asarray(values, dtype=complex))


def random_tridiagonal(rng, n):
    full = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.triu(np.tril(full, 1), -1)


def lapack_input(monkeypatch, run, *args):
    """The matrix run(*args) hands to LAPACK, by np.linalg.eigvals or eigvalsh."""
    seen = []

    def spy_on(routine):
        def spy(a):
            seen.append(np.array(a, copy=True))
            return routine(a)

        return spy

    with monkeypatch.context() as patch:
        for name in ("eigvals", "eigvalsh"):
            patch.setattr(np.linalg, name, spy_on(getattr(np.linalg, name)))
        run(*args)
    assert len(seen) == 1
    return seen[0]


def polished_count(monkeypatch, run, *args):
    """How many values run(*args) hands to the Newton polish."""
    seen = []
    polish = oracle._newton_polish

    def spy(diag, prods, eigenvalues):
        seen.append(len(eigenvalues))
        return polish(diag, prods, eigenvalues)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_newton_polish", spy)
        run(*args)
    return seen[0]


def test_diagonal_matrix():
    got = sorted_c(dense_spectrum(np.diag([1.0, 2.0, 3.0]).astype(complex)))
    np.testing.assert_allclose(got, [1.0, 2.0, 3.0], atol=1e-13)


def test_triangular_spectrum_is_diagonal():
    op = build_operator(GBSParams(1.0, 0.0, 0.25, 2))
    got = sorted_c(dense_spectrum(op))
    np.testing.assert_allclose(got.real, [-0.5, 0.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(got.imag, 0.0, atol=1e-12)


def test_rotation_generator_pair():
    op = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    got = sorted_c(dense_spectrum(op))
    np.testing.assert_allclose(got, [-1j, 1j], atol=1e-13)


def test_characteristic_polynomial_invariants():
    rng = np.random.default_rng(77)
    for n in (2, 4, 8):
        a = random_tridiagonal(rng, n)
        lam = dense_spectrum(a)
        assert abs(lam.sum() - np.trace(a)) <= 1e-11 * max(1.0, abs(np.trace(a)))
        det = np.linalg.det(a)
        assert abs(np.prod(lam) - det) <= 1e-9 * abs(det)


def test_dimension_64_accuracy_contract():
    # closed-form ladder spectrum is exact; the oracle must land within
    # 1e-10 |L|_F of it at the largest contractual dimension and at the
    # largest m the benchmark verifies
    from gbstates.solver import spectrum

    for m in (63, 120):
        p = GBSParams(0.8 * np.exp(0.9j), 1.2 * np.exp(-0.3j), 0.7, m)
        op = build_operator(p)
        oracle_vals = sorted_c(dense_spectrum(op))
        used = np.zeros(len(oracle_vals), dtype=bool)
        worst = 0.0
        for z in sorted_c(spectrum(p)):
            d = np.abs(oracle_vals - z)
            d[used] = np.inf
            j = int(np.argmin(d))
            used[j] = True
            worst = max(worst, float(d[j]))
        assert worst <= 1e-10 * np.linalg.norm(op)


@pytest.mark.parametrize("n", [1, 2, 7, 30])
@pytest.mark.parametrize("zero_subdiagonals", ["none", "one", "all"])
def test_log_det_derivative_matches_dense_trace(n, zero_subdiagonals):
    # the continuant on the three bands against -tr((H - z)^-1) from dense solves
    rng = np.random.default_rng(1000 + n)
    h = random_tridiagonal(rng, n)
    if zero_subdiagonals == "one" and n > 1:
        h[n // 2, n // 2 - 1] = 0.0
    elif zero_subdiagonals == "all":
        h = np.triu(h)
    eig = np.linalg.eigvals(h)
    z = rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 3, 40)
    z = z[np.abs(eig[:, None] - z[None, :]).min(axis=0) > 0.05]
    assert len(z) >= 20
    got = _log_det_derivative(np.diagonal(h), np.diagonal(h, -1) * np.diagonal(h, 1), z)
    eye = np.eye(n)
    for zi, gi in zip(z, got):
        ref = -np.trace(np.linalg.solve(h - zi * eye, eye))
        assert abs(gi - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize(
    "case", ["zero-pivot", "minor-eigenvalue", "entries-near-1e150", "entries-near-2^-40"]
)
def test_log_det_derivative_at_hard_points(case):
    # an exact zero pivot f_1 = 0 at z = d_0; a vanishing f_2 at an eigenvalue
    # of the leading 2 x 2 minor; entries whose growth bound forces a
    # rescaling on almost every row; and 30 rows that each shrink the pairs,
    # which only the cap on the rows between rescalings catches
    rng = np.random.default_rng(2100)
    h = random_tridiagonal(rng, 30 if case == "entries-near-2^-40" else 12)
    if case == "zero-pivot":
        z = np.array([h[0, 0]])
    elif case == "minor-eigenvalue":
        z = np.linalg.eigvals(h[:2, :2])
    else:
        size = 1e150 if case == "entries-near-1e150" else 2.0**-40
        eig = np.linalg.eigvals(h)
        z = rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 3, 40)
        z = z[np.abs(eig[:, None] - z[None, :]).min(axis=0) > 0.05] * size
        h *= size
    assert h[1, 0] * h[0, 1] != 0.0
    got = _log_det_derivative(np.diagonal(h), np.diagonal(h, -1) * np.diagonal(h, 1), z)
    eye = np.eye(len(h))
    for zi, gi in zip(z, got):
        ref = -np.trace(np.linalg.solve(h - zi * eye, eye))
        assert abs(gi - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("scale", [2.0**-500, 2.0**450])
def test_the_polish_keeps_a_scaled_matrix_in_range(scale):
    # the continuant runs on T divided by a power of two near its largest
    # entry; unscaled, entries of 1e-151 underflow it within three rows
    a = random_tridiagonal(np.random.default_rng(9), 12)
    values, routine, skipped = oracle._band_spectrum(*(np.diagonal(a * scale, j) for j in (-1, 0, 1)))
    assert (routine, skipped) == ("eigvals", 0)
    want = sorted_c(dense_spectrum(a))
    np.testing.assert_allclose(sorted_c(values / scale), want, rtol=0, atol=1e-13 * np.abs(want).max())


def test_newton_polish_counts_the_steps_it_skips():
    # at an exact root f = 0: a zero step, not a skip; 100 is far past the
    # cap 0.5 |T|_F + 1 = 2.87, so both its steps are skipped; 1.1 takes both
    diag = np.array([1.0, 2.0, 3.0], dtype=complex)
    z, skipped = oracle._newton_polish(diag, np.zeros(2, dtype=complex), np.array([1.0, 1.1, 100.0]))
    assert skipped == 2
    assert (z[0], z[2]) == (1.0, 100.0)
    assert abs(z[1] - 1.0) <= 1e-3


@pytest.mark.parametrize(
    "p",
    [GBSParams(1.0, 0.3, 0.4, 2), GBSParams(1.0, 0.0, 1e-300, 10)],
    ids=["m2", "diagonal-eta-1e-300"],
)
def test_exact_eigenvalues_take_no_skipped_newton_steps(p):
    # LAPACK lands on exact zeros of det(T - z) here; f'/f used to give
    # inf + nan i, and the polish counted each such value as a skipped step
    report = compare(p, solve(p))
    assert report.passed
    assert report.skipped_newton_steps == 0


@pytest.mark.parametrize("m", [200, 400])
@pytest.mark.parametrize("nu", [0.3, 0.7 * np.exp(0.03j)])
def test_balancing_keeps_near_normal_points_exact(nu, m):
    # (|nu|/|mu|)^(m/2) spans far more than a capped iterative balancing can
    # equalize; the symmetrized tridiag(e, d, e), e_n = sqrt(sub_n sup_n), is
    # balanced exactly, and without it these points fail at m = 400
    p = GBSParams(1.0, complex(nu), 0.4, m)
    report = compare(p, solve(p))
    assert report.passed
    assert report.max_pair_error <= 1e-12


# the benchmark's verified-solve points (mu, nu, eta): near-normal, Hermitian,
# defective and nu = 0
VERIFIED_POINTS = (
    (1.0, 0.7 * np.exp(0.03j), 0.4),
    (0.9 + 0.4j, 0.9 - 0.4j, 0.55),
    (1.0, -0.25, 0.5),
    (1.2, 0.0, 0.35),
)


@pytest.mark.parametrize("m", [20, 60, 120])
@pytest.mark.parametrize("point", VERIFIED_POINTS, ids=["near-normal", "hermitian", "defective", "nu-zero"])
def test_compare_hands_lapack_the_matrix_of_the_dense_operator(point, m, monkeypatch):
    # compare reads bands(p) and never builds L, yet LAPACK sees the same
    # folded matrix, bit for bit, as from dense_spectrum(build_operator(p))
    mu, nu, eta = point
    p = GBSParams(complex(mu), complex(nu), eta, m)
    want = lapack_input(monkeypatch, dense_spectrum, build_operator(p))
    got = lapack_input(monkeypatch, compare, p, solve(p))
    assert got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(compare(p, solve(p)).oracle_eigenvalues,
                                  dense_spectrum(build_operator(p)))


@pytest.mark.parametrize("m, h", [(1, 1), (2, 1), (7, 4), (40, 20), (41, 21), (120, 60)])
def test_lapack_sees_an_h_by_h_matrix_for_l(m, h, monkeypatch):
    # L's bands have the exact +-lambda symmetry, so LAPACK only sees the
    # folded square of T' on the smaller eigenspace of J
    p = GBSParams(0.8 * np.exp(0.9j), 1.2 * np.exp(-0.3j), 0.7, m)
    assert lapack_input(monkeypatch, compare, p, solve(p)).shape == (h, h)


@pytest.mark.parametrize("m", [1, 2, 7, 40, 41, 120])
def test_the_fold_polishes_h_values_and_returns_exact_pairs(m, monkeypatch):
    # the bands' +-lambda symmetry is exact, so the polished roots' negatives
    # and, for even m, an exact 0 are the rest of the spectrum
    p = GBSParams(0.8 * np.exp(0.9j), 1.2 * np.exp(-0.3j), 0.7, m)
    h = (m + 1) // 2
    assert polished_count(monkeypatch, compare, p, solve(p)) == h
    values = compare(p, solve(p)).oracle_eigenvalues
    assert len(values) == m + 1
    assert np.array_equal(values[h : 2 * h], -values[:h])
    assert np.array_equal(values[2 * h :], np.zeros(1 - m % 2))


@pytest.mark.parametrize("m", [20, 61, 120])
def test_the_routine_follows_the_real_slice(m):
    # mu nu > 0 makes W Hermitian up to the rounding of the gauge turn: eigvalsh;
    # 0.03 rad off the slice its skew-Hermitian part is 2e14 eps |W|_F: eigvals
    rng = np.random.default_rng(m)
    for mu, nu in ((1.0, 0.3), (0.9 + 0.4j, 0.9 - 0.4j), (1.2, 0.0)):
        turn = np.exp(1j * rng.uniform(-np.pi, np.pi))
        p = GBSParams(mu * turn.conjugate(), nu * turn, 0.4, m)
        report = compare(p, solve(p))
        assert (report.lapack_routine, report.passed) == ("eigvalsh", True)
    p = GBSParams(1.0, 0.7 * np.exp(0.03j), 0.4, m)
    report = compare(p, solve(p))
    assert (report.lapack_routine, report.passed) == ("eigvals", True)


def test_lapack_sees_the_full_symmetrized_matrix_without_the_symmetry(monkeypatch):
    def symmetrized(op):
        e = np.sqrt(np.diagonal(op, -1)) * np.sqrt(np.diagonal(op, 1))
        return np.diag(np.diagonal(op)) + np.diag(e, -1) + np.diag(e, 1)

    a = random_tridiagonal(np.random.default_rng(8), 9)
    assert np.array_equal(lapack_input(monkeypatch, dense_spectrum, a), symmetrized(a))
    # one ulp off the antisymmetric diagonal of L is enough to lose the fold,
    # and then every value is polished
    op = build_operator(GBSParams(1.0, 0.3j, 0.4, 12))
    op[0, 0] = np.nextafter(op[0, 0].real, 0.0)
    assert np.array_equal(lapack_input(monkeypatch, dense_spectrum, op), symmetrized(op))
    assert polished_count(monkeypatch, dense_spectrum, op) == 13


def test_an_overflowing_off_diagonal_product_is_named():
    h = np.eye(5, dtype=complex)
    h[2, 1], h[1, 2] = 1e200, -1e200j
    with pytest.raises(ValueError, match=r"sub\[1\] \* sup\[1\] .* overflows the double range"):
        dense_spectrum(h)


def test_the_fold_takes_a_diagonal_past_the_square_root_of_the_double_range():
    # T'^2 would hold 1e400 on its diagonal without the power-of-two scaling
    op = np.diag([-1e200, 0.0, 1e200]) + np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1)
    got = sorted_c(dense_spectrum(op.astype(complex)))
    np.testing.assert_allclose(got, [-1e200, 0.0, 1e200], rtol=1e-15, atol=0.0)


@settings(max_examples=40)
@given(
    st.floats(0.05, 2.0),
    st.floats(1e-3, 2.0),
    st.floats(-np.pi, np.pi),
    st.floats(0.05, 0.95),
    st.integers(1, 300),
)
def test_compare_passes_when_mu_nu_is_real_and_positive(abs_mu, abs_nu, phase, eta, m):
    # e_n = sqrt((1 - eta) mu nu (n + 1)(m - n)) is then real, so T' is real
    # symmetric and every eigenvalue has condition number 1, however
    # non-normal L is
    p = GBSParams(abs_mu * np.exp(1j * phase), abs_nu * np.exp(-1j * phase), eta, m)
    report = compare(p, solve(p))
    assert report.passed
    assert report.lapack_routine == "eigvalsh"


def test_non_tridiagonal_matrix_is_rejected():
    op = build_operator(GBSParams(1.0, 0.3, 0.4, 5))
    op[0, 2] = 1e-300
    with pytest.raises(ValueError, match="needs a tridiagonal matrix"):
        dense_spectrum(op)
    with pytest.raises(ValueError, match="needs a tridiagonal matrix"):
        dense_spectrum(np.ones((3, 3)))


def test_hermitian_spectrum_is_real():
    rng = np.random.default_rng(5)
    a = random_tridiagonal(rng, 9)
    h = (a + a.conj().T) / 2
    lam = dense_spectrum(h)
    assert np.abs(lam.imag).max() <= 1e-11 * np.linalg.norm(h)


def test_input_validation():
    with pytest.raises(ValueError):
        dense_spectrum(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        dense_spectrum(np.array([[np.inf, 0.0], [0.0, 0.0]]))


def test_lapack_failure_is_loud(monkeypatch):
    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fails)
    a = random_tridiagonal(np.random.default_rng(123), 10)
    with pytest.raises(NonConvergenceError, match="10x10"):
        dense_spectrum(a)


def greedy_pairing_loop(closed, oracle_vals):
    """The pairing one closed-form value at a time: the reference."""
    order_c = np.argsort(closed.real + 1e-12 * closed.imag)
    order_o = np.argsort(oracle_vals.real + 1e-12 * oracle_vals.imag)
    used = np.zeros(len(order_o), dtype=bool)
    pairing, max_err = [], 0.0
    for ci in order_c:
        dist = np.abs(oracle_vals[order_o] - closed[ci])
        dist[used] = np.inf
        j = int(np.argmin(dist))
        used[j] = True
        pairing.append((int(ci), int(order_o[j])))
        max_err = max(max_err, float(dist[j]))
    return sorted(pairing), max_err


@pytest.mark.parametrize("n", [1, 2, 5, 13, 121])
@pytest.mark.parametrize("kind", ["close", "unrelated", "ties", "collapsed", "nan"])
def test_greedy_pairing_matches_the_loop_bit_for_bit(n, kind):
    # close lists take the loop-free path; the others contend for partners
    rng = np.random.default_rng(n)
    closed = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    oracle_vals = closed + 1e-9 * rng.standard_normal(n)
    if kind == "unrelated":
        oracle_vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    elif kind == "ties":
        closed = np.round(closed)
        oracle_vals = np.round(closed + 0.3 * rng.standard_normal(n))
    elif kind == "collapsed":
        closed = np.zeros(n, dtype=complex)
        oracle_vals = 1e-3 * rng.standard_normal(n) + 0j
    elif kind == "nan":
        oracle_vals[n // 2] = np.nan
    assert oracle._greedy_pairing(closed, oracle_vals) == greedy_pairing_loop(closed, oracle_vals)


def test_compare_nu_zero_is_tight():
    p = GBSParams(1.0, 0.0, 0.25, 2)
    report = compare(p, solve(p))
    assert report.max_pair_error <= 1e-12
    assert not report.multiplicity_collapse
    assert sorted(i for i, _ in report.pairing) == [0, 1, 2]
    assert sorted(j for _, j in report.pairing) == [0, 1, 2]


def test_compare_random_draws():
    rng = np.random.default_rng(40)
    for _ in range(10):
        m = int(rng.integers(1, 13))
        mu = rng.uniform(0.05, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        nu = rng.uniform(0.0, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        p = GBSParams(complex(mu), complex(nu), float(rng.uniform(0.05, 0.95)), m)
        sol = solve(p)
        report = compare(p, sol)
        assert report.max_pair_error <= 1e-9 * (1 + np.abs(sol.eigenvalues).max())
        assert report.max_residual <= 1e-10 * np.linalg.norm(build_operator(p))


def test_compare_flags_defective_collapse():
    p = GBSParams(1.0, -1.0, 0.8, 3)
    sol = solve(p)
    assert sol.kind is SolutionKind.DEFECTIVE_A_ZERO_ZERO
    report = compare(p, sol)
    assert report.multiplicity_collapse
    assert report.pairing == []
    assert report.max_pair_error is None
    assert report.max_residual <= 1e-10 * np.linalg.norm(build_operator(p))


@pytest.mark.parametrize(
    "p, kind",
    [
        (GBSParams(0.8 * np.exp(0.9j), 1.2 * np.exp(-0.3j), 0.7, 12), SolutionKind.GENERIC),
        (GBSParams(0.8 + 0.3j, 0.8 - 0.3j, 0.45, 9), SolutionKind.DEGENERATE_A_PLUS_ZERO),
        (GBSParams(1.0, -1.0, 0.8, 3), SolutionKind.DEFECTIVE_A_ZERO_ZERO),
    ],
)
def test_compare_carries_its_verdict(p, kind):
    sol = solve(p)
    assert sol.kind is kind
    report = compare(p, sol)
    assert report.pair_bound == 1e-9 * (1.0 + float(np.abs(sol.eigenvalues).max()))
    assert report.residual_bound == pytest.approx(
        1e-10 * np.linalg.norm(build_operator(p)), rel=1e-13
    )
    assert report.passed
    assert (report.max_pair_error is None) == (kind is SolutionKind.DEFECTIVE_A_ZERO_ZERO)


def test_report_passed_applies_both_bounds():
    p = GBSParams(1.0, 0.0, 0.25, 2)
    report = compare(p, solve(p))
    assert report.passed
    assert not dataclasses.replace(report, max_residual=2 * report.residual_bound).passed
    over = dataclasses.replace(report, max_pair_error=2 * report.pair_bound)
    assert not over.passed
    # a collapsed multiplicity is judged on its residual alone
    assert dataclasses.replace(over, multiplicity_collapse=True).passed


def test_compare_rejects_foreign_solution():
    p = GBSParams(1.0, 0.0, 0.25, 2)
    other = GBSParams(1.0, 0.0, 0.35, 2)
    with pytest.raises(ValueError):
        compare(other, solve(p))


def test_compare_rejects_size_mismatch():
    p = GBSParams(1.0, 0.0, 0.25, 2)
    sol = solve(p)
    sol.eigenvalues = sol.eigenvalues[:-1]
    with pytest.raises(ValueError):
        compare(p, sol)
