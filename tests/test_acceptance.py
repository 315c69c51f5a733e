"""Acceptance suite: every release-gating property at its contractual tolerance.

Each test runs one battery criterion, prints a PASS/FAIL line per check, and
asserts the lot.  Tolerances are the battery's own thresholds.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import numpy as np

from gbstates import verification as vf


def report_and_assert(results):
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}: observed {r.observed:.3e} <= threshold {r.threshold:.3e}")
        if r.detail:
            print(f"      {r.detail}")
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"criteria failed: {failed}"
    return results


def test_criterion_01_binomial_core():
    # eta grid x m <= 60: termwise distribution 1e-14, ladder residual 1e-12,
    # displaced-vacuum form infidelity 1e-12
    report_and_assert(vf.check_binomial_core())


def test_criterion_02_spectrum_oracle_equivalence():
    # 200 random draws, m <= 12: pairing within 1e-9 (1 + max |eigenvalue|),
    # eigenstate residuals within 1e-10 |L|_F
    report_and_assert(vf.check_spectrum_oracle())


def test_criterion_03_form_equivalence():
    # finite-sum vs exponential eigenstates: infidelity <= 1e-11, same draws
    report_and_assert(vf.check_form_equivalence())


def test_criterion_04_degenerate_branch():
    # 50 mu = nu* draws: branch detection, |Im eigenvalue| <= 1e-10,
    # orthonormality defect <= 1e-10, residuals <= 1e-10 |L|_F
    report_and_assert(vf.check_degenerate_branch())


def test_criterion_05_number_state_limit():
    # nu in {0, 0.4}, m = 6, every k: monotone fidelity along eta and
    # >= 0.9999 at eta = 1 - 1e-6
    report_and_assert(vf.check_number_state_limit())


def test_criterion_06_coherent_limit():
    # nu = 0, k = m, alpha = 1, m up to 400: fidelity with the coherent state
    # increasing and >= 0.999 at m = 400
    report_and_assert(vf.check_coherent_limit())


def test_criterion_07_squeezed_limit_and_amplitude_verdict():
    # mu = 1, nu = 0.3, center rule: strictly decreasing residual of
    # (mu a + nu a^dag - alpha/2), fidelity >= 0.99 at m = 200, and the
    # alpha/2 vs alpha/sqrt(2) verdict recorded in the report
    results = report_and_assert(vf.check_squeezed_limit())
    assert "verdict: alpha/2" in results[0].detail


def test_criterion_08_disentangling_theorem():
    # 50 random |xi| <= 1.4, m <= 20: the exact-integer product form equals
    # displacement() to 1e-10 Frobenius
    report_and_assert(vf.check_disentangling())


def test_criterion_09_time_evolution():
    # 20 random (phi, omega t) pairs at eta = 0.3, m = 8, k in {0, 4, 8}:
    # phase-shift identity infidelity <= 1e-12
    report_and_assert(vf.check_time_evolution())


def test_criterion_10_su2_algebra_and_unitarity():
    # commutator identities to 1e-12 on the band that L and D(zeta) read,
    # and displacement unitarity to 1e-11, for all m <= 40
    report_and_assert(vf.check_su2_algebra_and_unitarity())


def test_criterion_10_fails_on_a_wrong_hop(monkeypatch):
    # (n+1)(m-n+1) keeps [J0, J+-] = +-J+- but breaks [J+, J-] = 2 J0
    def wrong_hop_squares(m):
        n = np.arange(m)
        return ((n + 1) * (m - n + 1)).astype(float)

    monkeypatch.setattr(vf, "hop_squares", wrong_hop_squares)
    results = {r.name: r for r in vf.check_su2_algebra_and_unitarity()}
    assert not results["su2-commutators"].passed
    assert results["displacement-unitarity"].passed


def test_open_question_modulus_absorption_verdict():
    # |mu| is absorbed by eta / (eta + |mu|^2 (1 - eta)), not the |mu| form
    results = report_and_assert(vf.check_modulus_absorption())
    assert "|mu|^2 formula reproduces" in results[0].detail
