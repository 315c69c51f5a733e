import dataclasses

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_reference
from gbstates import oracle
from gbstates.oracle import NonConvergenceError, _band_spectrum, _log_det_derivative, compare, dense_spectrum
from gbstates.solver import GBSParams, SolutionKind, bands, build_operator, solve


def sorted_c(values):
    return np.sort_complex(np.asarray(values, dtype=complex))


def random_tridiagonal(rng, n):
    full = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.triu(np.tril(full, 1), -1)


def symmetric_bands(rng, n, hermitian=False):
    """Random (sub, diag, sup) of size n with L's exact +-lambda symmetry:
    an antisymmetric diagonal and palindromic off-diagonals."""
    def draw(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    def palindrome(x):
        return (x + x[::-1]) / 2

    diag = draw(n)
    if hermitian:
        diag = diag.real + 0j
    sup = palindrome(draw(n - 1))
    sub = sup.conj() if hermitian else palindrome(draw(n - 1))
    return sub, (diag - diag[::-1]) / 2, sup


def tridiagonal(sub, diag, sup):
    return np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)


def lapack_inputs(monkeypatch, run, *args):
    """The matrices run(*args) hands to LAPACK, by np.linalg.eigvals or eigvalsh."""
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
    return seen


def lapack_input(monkeypatch, run, *args):
    """The one matrix run(*args) hands to LAPACK."""
    seen = lapack_inputs(monkeypatch, run, *args)
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
    zeros = np.zeros(4, dtype=complex)
    got = sorted_c(_band_spectrum(zeros, np.array([-3.0, -1.0, 0.0, 1.0, 3.0], dtype=complex), zeros)[0])
    np.testing.assert_allclose(got, [-3.0, -1.0, 0.0, 1.0, 3.0], atol=1e-13)


def test_triangular_spectrum_is_diagonal():
    got = sorted_c(_band_spectrum(*bands(GBSParams(1.0, 0.0, 0.25, 2)))[0])
    np.testing.assert_allclose(got.real, [-0.5, 0.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(got.imag, 0.0, atol=1e-12)


def test_rotation_generator_pair():
    # [[0, 1], [-1, 0]]: e = sqrt(-1) sqrt(1) = i
    got = sorted_c(_band_spectrum(np.array([-1.0 + 0j]), np.zeros(2, dtype=complex), np.array([1.0 + 0j]))[0])
    np.testing.assert_allclose(got, [-1j, 1j], atol=1e-13)


def test_characteristic_polynomial_invariants():
    rng = np.random.default_rng(77)
    for n in (2, 4, 8):
        sub, diag, sup = symmetric_bands(rng, n)
        a = tridiagonal(sub, diag, sup)
        lam = _band_spectrum(sub, diag, sup)[0]
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
        op = dense_reference(p)
        oracle_vals = sorted_c(_band_spectrum(*bands(p))[0])
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
    sub, diag, sup = symmetric_bands(np.random.default_rng(9), 12)
    values, routine, skipped = _band_spectrum(sub * scale, diag * scale, sup * scale)
    assert (routine, skipped) == ("eigvals", 0)
    want = sorted_c(np.linalg.eigvals(tridiagonal(sub, diag, sup)))
    np.testing.assert_allclose(sorted_c(values / scale), want, rtol=0, atol=1e-13 * np.abs(want).max())
    # LAPACK's values are already that close; the polish must also pull in
    # values 1e-6 off, which an underflowed continuant would leave in place
    z, skipped = oracle._newton_polish(diag * scale, (sub * scale) * (sup * scale), want * scale * (1 + 1e-6))
    assert skipped == 0
    np.testing.assert_allclose(sorted_c(z / scale), want, rtol=0, atol=1e-13 * np.abs(want).max())


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
    # inf + nan i, and the polish counted each such value as a skipped step.
    # Both points lie on the real slice, where compare counts instead
    report = compare(p, solve(p))
    assert report.passed
    assert report.skipped_newton_steps == 0
    assert _band_spectrum(*bands(p))[2] == 0


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


# the benchmark's verified-solve points (mu, nu, eta), with compare's route
# for each: near-normal, Hermitian, defective and nu = 0
VERIFIED_POINTS = (
    ((1.0, 0.7 * np.exp(0.03j), 0.4), "lapack"),
    ((0.9 + 0.4j, 0.9 - 0.4j, 0.55), "sturm"),
    ((1.0, -0.25, 0.5), "none"),
    ((1.2, 0.0, 0.35), "sturm"),
)


@pytest.mark.parametrize("m", [20, 60, 120])
@pytest.mark.parametrize("point, method", VERIFIED_POINTS, ids=["near-normal", "hermitian", "defective", "nu-zero"])
def test_compare_hands_lapack_the_matrix_of_the_dense_operator(point, method, m, monkeypatch):
    # compare reads bands(p) and never builds L.  Where it calls LAPACK, off
    # the real slice, LAPACK sees the same folded matrix, bit for bit, as from
    # the dense generator sum; on the slice the Sturm count proves the pairs,
    # and on the defective branch no spectrum is computed: neither calls it
    mu, nu, eta = point
    p = GBSParams(complex(mu), complex(nu), eta, m)
    report = compare(p, solve(p))
    assert (report.method, report.passed) == (method, True)
    if method == "lapack":
        want = lapack_input(monkeypatch, dense_spectrum, dense_reference(p))
        got = lapack_input(monkeypatch, compare, p, solve(p))
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(report.oracle_eigenvalues, dense_spectrum(dense_reference(p)))
        return
    assert lapack_inputs(monkeypatch, compare, p, solve(p)) == []
    assert (report.lapack_routine, report.skipped_newton_steps) == ("", 0)
    if method == "sturm":
        assert report.oracle_eigenvalues is report.closed_form_eigenvalues
        assert report.pairing == [(k, k) for k in range(m + 1)]
        assert report.max_pair_error <= 1e-12 * (1.0 + float(np.abs(report.closed_form_eigenvalues).max()))
    else:
        assert (len(report.oracle_eigenvalues), report.pairing, report.max_pair_error) == (0, [], None)


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
    # mu nu >= 0 up to the rounding of the gauge turn: the Sturm count, and no
    # LAPACK; 0.03 rad off the slice W's skew-Hermitian part is 2e14 eps
    # |W|_F: eigvals
    rng = np.random.default_rng(m)
    for mu, nu in ((1.0, 0.3), (0.9 + 0.4j, 0.9 - 0.4j), (1.2, 0.0)):
        turn = np.exp(1j * rng.uniform(-np.pi, np.pi))
        p = GBSParams(mu * turn.conjugate(), nu * turn, 0.4, m)
        report = compare(p, solve(p))
        assert (report.method, report.lapack_routine, report.passed) == ("sturm", "", True)
    p = GBSParams(1.0, 0.7 * np.exp(0.03j), 0.4, m)
    report = compare(p, solve(p))
    assert (report.method, report.lapack_routine, report.passed) == ("lapack", "eigvals", True)


def test_a_matrix_without_the_symmetry_is_rejected():
    # the oracle has no route for bands without L's exact +-lambda symmetry
    with pytest.raises(ValueError, match="exact \\+-lambda symmetry"):
        dense_spectrum(random_tridiagonal(np.random.default_rng(8), 9))
    # one ulp off the antisymmetric diagonal of L is enough
    op = build_operator(GBSParams(1.0, 0.3j, 0.4, 12))
    op[0, 0] = np.nextafter(op[0, 0].real, 0.0)
    with pytest.raises(ValueError, match="exact \\+-lambda symmetry"):
        dense_spectrum(op)


def test_an_overflowing_off_diagonal_product_is_named():
    h = np.eye(5, dtype=complex)
    h[2, 1], h[1, 2] = 1e200, -1e200j
    with pytest.raises(ValueError, match=r"sub\[1\] \* sup\[1\] .* overflows the double range"):
        dense_spectrum(h)


def test_the_fold_takes_a_diagonal_past_the_square_root_of_the_double_range():
    # T'^2 would hold 1e400 on its diagonal without the power-of-two scaling
    ones = np.ones(2, dtype=complex)
    got = sorted_c(_band_spectrum(ones, np.array([-1e200, 0.0, 1e200], dtype=complex), ones)[0])
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
    assert (report.method, report.lapack_routine) == ("sturm", "")


def test_non_tridiagonal_matrix_is_rejected():
    op = build_operator(GBSParams(1.0, 0.3, 0.4, 5))
    op[0, 2] = 1e-300
    with pytest.raises(ValueError, match="needs a tridiagonal matrix"):
        dense_spectrum(op)
    with pytest.raises(ValueError, match="needs a tridiagonal matrix"):
        dense_spectrum(np.ones((3, 3)))


def test_hermitian_spectrum_is_real():
    for n in (8, 9):
        bands_h = symmetric_bands(np.random.default_rng(5), n, hermitian=True)
        lam, routine, _ = _band_spectrum(*bands_h)
        assert routine == "eigvalsh"
        assert np.abs(lam.imag).max() <= 1e-11 * np.linalg.norm(tridiagonal(*bands_h))


def test_input_validation():
    with pytest.raises(ValueError):
        dense_spectrum(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        dense_spectrum(np.array([[np.inf, 0.0], [0.0, 0.0]]))


def test_lapack_failure_is_loud(monkeypatch):
    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # off the real slice W goes to eigvals; m = 20 folds to h = 10
    p = GBSParams(0.8 * np.exp(0.9j), 1.2 * np.exp(-0.3j), 0.7, 20)
    sol = solve(p)
    monkeypatch.setattr(np.linalg, "eigvals", fails)
    with pytest.raises(NonConvergenceError, match="10x10"):
        compare(p, sol)


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
        assert report.max_residual <= 1e-10 * np.linalg.norm(dense_reference(p))


def test_compare_flags_defective_collapse():
    p = GBSParams(1.0, -1.0, 0.8, 3)
    sol = solve(p)
    assert sol.kind is SolutionKind.DEFECTIVE_A_ZERO_ZERO
    report = compare(p, sol)
    assert report.multiplicity_collapse
    assert report.pairing == []
    assert report.max_pair_error is None
    assert report.max_residual <= 1e-10 * np.linalg.norm(dense_reference(p))


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
        1e-10 * np.linalg.norm(dense_reference(p)), rel=1e-13
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


def mp_complex(z):
    return mp.mpc(z.real, z.imag)


def eighty_digit_enclosures(p):
    """Discs that each hold one eigenvalue of L, in 80 digits from the exact
    double inputs: (centres, radii), centre k the eigenvalue of closed-form
    index k.

    nu = 0 makes L upper triangular: its eigenvalues are its diagonal,
    sqrt(eta) (n - m/2), exactly.  Otherwise the centres are
    z_k = A0 (2k - m)/2 and the radii (m + 1)|W_k|, with the Weierstrass
    correction W_k = p(z_k) / prod_{j != k}(z_k - z_j) of p(z) = det(z - L):
    every eigenvalue lies in the union of these discs (Braess & Hadeler,
    1973), and each of them, when they are disjoint, holds exactly one
    (Carstensen, 1991).  p comes from the continuant of the exact diagonal
    and products (1-eta) mu nu (n+1)(m-n), and the denominator is
    A0^m (-1)^(m-k) k! (m-k)!.  p(-z) = (-1)^(m+1) p(z) and the ladder is
    symmetric, so |W_{m-k}| = |W_k| and only k <= m/2 is evaluated.
    """
    m = p.m
    with mp.workdps(80):
        mu, nu, eta = mp_complex(p.mu), mp_complex(p.nu), mp.mpf(p.eta)
        diag = [mp.sqrt(eta) * (n - mp.mpf(m) / 2) for n in range(m + 1)]
        if p.nu == 0:
            return diag, [mp.mpf(0)] * (m + 1)
        a0 = mp.sqrt(eta + 4 * (1 - eta) * mu * nu)
        prods = [(1 - eta) * mu * nu * (n + 1) * (m - n) for n in range(m)]
        centres = [a0 * (2 * k - m) / 2 for k in range(m + 1)]
        radii = []
        for k in range(m // 2 + 1):
            z = centres[k]
            f_prev, f = mp.mpc(1), z - diag[0]
            for d, c in zip(diag[1:], prods):
                f_prev, f = f, (z - d) * f - c * f_prev
            radii.append((m + 1) * abs(f) / (abs(a0) ** m * mp.factorial(k) * mp.factorial(m - k)))
        radii += radii[: (m + 1) // 2][::-1]
        assert 2 * max(radii) < abs(a0)  # disjoint
        return centres, radii


@pytest.mark.parametrize("m", [1, 2, 20, 120, 400])
@pytest.mark.parametrize("abs_mu", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("point", ["nu-zero", "hermitian"])
def test_the_sturm_radius_holds_every_eighty_digit_eigenvalue(point, abs_mu, m):
    # the radius compare reports on the real slice is a bound on every pair
    # error: each eigenvalue of L, enclosed to ~1e-70 in 80 digits, lies
    # within it of its closed-form value
    turn = np.exp(1j * np.random.default_rng(m).uniform(-np.pi, np.pi))
    mu = abs_mu * (0.9 + 0.4j) / abs(0.9 + 0.4j) * turn.conjugate()
    nu = 0.0 if point == "nu-zero" else np.conj(abs_mu * (0.9 + 0.4j) / abs(0.9 + 0.4j)) * turn
    p = GBSParams(complex(mu), complex(nu), 0.55, m)
    sol = solve(p)
    report = compare(p, sol)
    assert (report.method, report.passed) == ("sturm", True)
    centres, radii = eighty_digit_enclosures(p)
    with mp.workdps(80):
        worst = max(abs(c - mp_complex(lam)) + r for c, r, lam in zip(centres, radii, sol.eigenvalues))
    assert worst <= report.max_pair_error


@pytest.mark.parametrize("k", [0, 7, 30])
@pytest.mark.parametrize("mu, nu", [(1.0, 0.3), (0.9 + 0.4j, 0.9 - 0.4j), (1.2, 0.0)])
def test_a_closed_form_value_moved_by_twice_the_bound_fails(mu, nu, k):
    # on the real slice the count must not certify a wrong ladder: one value
    # moved by 2 pair_bound leaves it without a radius, and LAPACK then fails it
    p = GBSParams(complex(mu), complex(nu), 0.4, 30)
    sol = solve(p)
    step = 2 * compare(p, sol).pair_bound
    for direction in (1.0, -1.0, 1j):
        moved = dataclasses.replace(sol, eigenvalues=sol.eigenvalues.copy())
        moved.eigenvalues[k] += direction * step
        phase = oracle._slice_phase_bound(p)
        assert oracle._sturm_radius(p, bands(p)[1].real, moved.eigenvalues, phase, step / 2) is None
        report = compare(p, moved)
        assert (report.method, report.passed) == ("lapack", False)


@settings(max_examples=100)
@given(
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.floats(-np.pi, np.pi),
    st.floats(0.01, 0.99),
    st.integers(0, 300),
)
def test_the_sturm_verdict_is_the_lapack_routes(log_mu, log_nu, phase, eta, m):
    # on the real slice, the verdict compare reaches by counting is the one
    # LAPACK plus the polish and the greedy pairing would reach
    turn = np.exp(1j * phase)
    p = GBSParams(10.0**log_mu * turn.conjugate(), 10.0**log_nu * turn, eta, m)
    sol = solve(p)
    report = compare(p, sol)
    assert report.method == "sturm"
    values, _, _ = _band_spectrum(*bands(p))
    _, pair_error = oracle._greedy_pairing(sol.eigenvalues, values)
    assert report.passed == (pair_error <= report.pair_bound and report.max_residual <= report.residual_bound)
