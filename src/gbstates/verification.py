"""Property battery: every verifiable claim, runnable without a test harness.

Each check returns CheckResult records with an observed worst-case metric and
the threshold it must stay under.  The battery is fixed: its draw counts and
seeds are the module constants below, so every run computes the same values
and no check takes a parameter.  The CLI `verify` subcommand runs the whole
battery and renders a table; the acceptance test suite asserts the same
records one criterion at a time.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .analysis import (
    KRule,
    LimitSchedule,
    coherent_amplitude_discrepancy,
    number_limit_scan,
    squeezed_limit_scan,
    time_evolve,
)
from .binomial import BinomialParams, binomial_amplitudes, binomial_displacement_form, ladder_residual
from .displacement import DisplacementParams, disentangled_displacement, displacement
from .fock import fidelity, hop_squares
from .oracle import compare
from .solver import (
    GBSParams,
    SolutionKind,
    eigenstate_exponential,
    eigenstate_sum,
    solve,
)

DEFAULT_SPECTRUM_DRAWS = 200
DEFAULT_DEGENERATE_DRAWS = 50
DEFAULT_DISENTANGLE_DRAWS = 50
DEFAULT_SEED = 20240615


@dataclass
class CheckResult:
    """One verified property: passes iff observed <= threshold (and any
    side conditions recorded in detail hold).  wall_s, set by run_all, is the
    wall time of the check function that produced the record."""

    name: str
    passed: bool
    observed: float
    threshold: float
    detail: str = ""
    wall_s: float = 0.0


def _result(name, observed, threshold, detail="", extra_ok=True):
    return CheckResult(
        name=name,
        passed=bool(observed <= threshold) and extra_ok,
        observed=float(observed),
        threshold=float(threshold),
        detail=detail,
    )


def random_parameter_draws(count: int, seed: int, hermitian: bool = False):
    """Reproducible parameter draws: |mu| in (0.05, 2], |nu| <= 2, random
    phases, eta in (0.05, 0.95), m in 1..12."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        m = int(rng.integers(1, 13))
        mu = rng.uniform(0.05, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        if hermitian:
            nu = np.conj(mu)
        else:
            nu = rng.uniform(0.0, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        eta = float(rng.uniform(0.05, 0.95))
        draws.append(GBSParams(mu=complex(mu), nu=complex(nu), eta=eta, m=m))
    return draws


def check_binomial_core() -> list[CheckResult]:
    """Grid eta in {0.1..0.9} x m in {1..60}: distribution termwise against an
    exact rational evaluation, ladder residual, and displaced-vacuum form."""
    etas = [round(0.1 * k, 1) for k in range(1, 10)]
    worst_dist = 0.0
    worst_ladder = 0.0
    worst_infid = 0.0
    for m in range(1, 61):
        for eta in etas:
            p = BinomialParams(eta=eta, m=m)
            amps = binomial_amplitudes(p)
            dist = np.abs(amps) ** 2
            # the float eta is a / b exactly, so C(m, n) eta^n (1 - eta)^(m-n)
            # is an integer ratio, and int / int rounds it correctly
            a, b = eta.as_integer_ratio()
            ref = np.array([math.comb(m, n) * a**n * (b - a) ** (m - n) / b**m for n in range(m + 1)])
            worst_dist = max(worst_dist, float(np.abs(dist - ref).max()))
            worst_ladder = max(worst_ladder, ladder_residual(p))
            worst_infid = max(
                worst_infid, 1.0 - fidelity(binomial_displacement_form(p), amps)
            )
    return [
        _result("binomial-distribution-termwise", worst_dist, 1e-14),
        _result("binomial-ladder-residual", worst_ladder, 1e-12),
        _result("binomial-displaced-form-infidelity", worst_infid, 1e-12),
    ]


def check_spectrum_oracle() -> list[CheckResult]:
    """Closed-form eigenvalues multiset-match the independent oracle spectrum and
    the eigenstates have small residuals, over random parameter draws."""
    worst_pair_ratio = 0.0
    worst_pair_detail = ""
    worst_resid_ratio = 0.0
    for i, p in enumerate(random_parameter_draws(DEFAULT_SPECTRUM_DRAWS, DEFAULT_SEED)):
        sol = solve(p)
        report = compare(p, sol)
        if report.multiplicity_collapse:
            continue  # defective draws are flagged, not paired
        ratio = report.max_pair_error / report.pair_bound
        if ratio > worst_pair_ratio:
            worst_pair_ratio = ratio
            worst_pair_detail = (
                f"worst pair error {report.max_pair_error:.3e} "
                f"vs bound {report.pair_bound:.3e} (draw {i})"
            )
        worst_resid_ratio = max(worst_resid_ratio, report.max_residual / report.residual_bound)
    return [
        _result("spectrum-oracle-pairing", worst_pair_ratio, 1.0, worst_pair_detail),
        _result(
            "eigenstate-residuals",
            worst_resid_ratio,
            1.0,
            "residuals measured against 1e-10 * |L|_F per draw",
        ),
    ]


def check_form_equivalence() -> list[CheckResult]:
    """Finite-sum and exponential eigenstate forms agree for every k."""
    worst = 0.0
    for p in random_parameter_draws(DEFAULT_SPECTRUM_DRAWS, DEFAULT_SEED):
        for k in range(p.m + 1):
            worst = max(
                worst,
                1.0 - fidelity(eigenstate_sum(p, k), eigenstate_exponential(p, k)),
            )
    return [_result("sum-vs-exponential-form-infidelity", worst, 1e-11)]


def check_degenerate_branch() -> list[CheckResult]:
    """mu = nu* draws: Hermitian branch detection, real spectrum, orthonormal
    eigenbasis, small residuals."""
    all_degenerate = True
    worst_imag = 0.0
    worst_gram = 0.0
    worst_resid_ratio = 0.0
    for p in random_parameter_draws(DEFAULT_DEGENERATE_DRAWS, DEFAULT_SEED + 1, hermitian=True):
        sol = solve(p)
        if sol.kind is not SolutionKind.DEGENERATE_A_PLUS_ZERO:
            all_degenerate = False
            continue
        worst_imag = max(worst_imag, float(np.abs(sol.eigenvalues.imag).max()))
        states = sol.eigenstates
        gram_defect = np.abs(states.conj() @ states.T - np.eye(p.m + 1)).max()
        worst_gram = max(worst_gram, float(gram_defect))
        report = compare(p, sol)
        worst_resid_ratio = max(worst_resid_ratio, report.max_residual / report.residual_bound)
    return [
        _result(
            "degenerate-branch-detection",
            0.0,
            1.0,
            "every mu = nu* draw lands on the displaced-number-state branch",
            extra_ok=all_degenerate,
        ),
        _result("degenerate-eigenvalue-imag-parts", worst_imag, 1e-10),
        _result("degenerate-orthonormality-defect", worst_gram, 1e-10),
        _result("degenerate-eigenstate-residuals", worst_resid_ratio, 1.0),
    ]


def check_number_state_limit() -> list[CheckResult]:
    """eta -> 1: every eigenstate approaches its number state, monotonically."""
    etas = [0.9, 0.99, 0.999, 0.9999, 1.0 - 1e-6]
    m = 6
    monotone = True
    worst_final_infid = 0.0
    for nu in (0.0, 0.4):
        for k in range(m + 1):
            rows = number_limit_scan(1.0, nu, m, k, etas)
            fids = [f for _, f in rows]
            if any(b < a - 1e-12 for a, b in zip(fids, fids[1:])):
                monotone = False
            worst_final_infid = max(worst_final_infid, 1.0 - fids[-1])
    return [
        _result(
            "number-state-limit",
            worst_final_infid,
            1e-4,
            "fidelity with |k> monotone along eta, every k, nu in {0, 0.4}",
            extra_ok=monotone,
        )
    ]


def check_coherent_limit() -> list[CheckResult]:
    """Top eigenstate of the nu = 0 family approaches the coherent state: the
    scan behind `gbstates limit --mode coherent`."""
    schedule = LimitSchedule(alpha=1.0, m_values=(50, 100, 200, 400), k_rule=KRule("top-offset"))
    fids = [f for _, _, f in squeezed_limit_scan(1.0, 0.0, schedule)]
    increasing = all(b > a for a, b in zip(fids, fids[1:]))
    return [
        _result(
            "coherent-limit",
            1.0 - fids[-1],
            1e-3,
            f"fidelities {['%.6f' % f for f in fids]} increasing along m",
            extra_ok=increasing,
        )
    ]


def check_squeezed_limit() -> list[CheckResult]:
    """Center-rule eigenstate approaches the squeezed eigenstate of eigenvalue
    alpha/2; also settles the alpha/2 vs alpha/sqrt(2) amplitude question."""
    schedule = LimitSchedule(alpha=1.0, m_values=(50, 100, 200), k_rule=KRule("center", 0))
    rows = squeezed_limit_scan(1.0, 0.3, schedule)
    residuals = [r for _, r, _ in rows]
    fids = [f for _, _, f in rows]
    strictly_decreasing = all(b < a for a, b in zip(residuals, residuals[1:]))
    verdict = coherent_amplitude_discrepancy(1.0, (50, 100, 200))
    detail = (
        f"residuals {['%.4e' % r for r in residuals]} strictly decreasing; "
        f"center-rule amplitude verdict: {verdict['verdict']} "
        f"(fid[alpha/2] = {verdict['fidelity_alpha_half'][-1]:.6f}, "
        f"fid[alpha/sqrt2] = {verdict['fidelity_alpha_over_sqrt2'][-1]:.6f})"
    )
    return [
        _result(
            "squeezed-limit",
            1.0 - fids[-1],
            1e-2,
            detail,
            extra_ok=strictly_decreasing,
        )
    ]


def check_disentangling() -> list[CheckResult]:
    """Exact-integer product form of the rotation equals displacement()."""
    rng = np.random.default_rng(DEFAULT_SEED + 2)
    worst = 0.0
    for _ in range(DEFAULT_DISENTANGLE_DRAWS):
        m = int(rng.integers(1, 21))
        absxi = float(rng.uniform(0.0, 1.4))
        phase = float(rng.uniform(-np.pi, np.pi))
        direct = displacement(DisplacementParams(r=absxi, theta=phase, m=m))
        product = disentangled_displacement(absxi * np.exp(1j * phase), m)
        worst = max(worst, float(np.linalg.norm(direct - product)))
    return [_result("disentangling-product-form", worst, 1e-10)]


def check_time_evolution() -> list[CheckResult]:
    """Free evolution of a nu = 0 eigenstate equals the state rebuilt with the
    shifted mu phase, up to a global phase."""
    rng = np.random.default_rng(DEFAULT_SEED + 3)
    eta, m = 0.3, 8
    worst = 0.0
    for _ in range(20):
        phi = float(rng.uniform(-np.pi, np.pi))
        omega_t = float(rng.uniform(0.0, 4 * np.pi))
        for k in (0, 4, 8):
            p0 = GBSParams(mu=np.exp(1j * phi), nu=0.0, eta=eta, m=m)
            evolved = time_evolve(eigenstate_sum(p0, k), omega=1.0, t=omega_t)
            p1 = GBSParams(mu=np.exp(1j * (phi + omega_t)), nu=0.0, eta=eta, m=m)
            worst = max(worst, 1.0 - fidelity(evolved, eigenstate_sum(p1, k)))
    return [_result("time-evolution-phase-shift", worst, 1e-12)]


def check_su2_algebra_and_unitarity() -> list[CheckResult]:
    """Displacement unitarity and the su(2) commutators, for every m <= 40, on
    the hop that L and D(zeta) read: [J0, J+-] = +-J+- entry by entry on the
    band, and [J+, J-] = 2 J0 on the diagonal, hop_n^2 - hop_{n-1}^2 = m - 2n.
    """
    rng = np.random.default_rng(DEFAULT_SEED + 4)
    worst_comm = 0.0
    worst_unit = 0.0
    for m in range(41):
        hop = np.sqrt(hop_squares(m))
        j0 = m / 2 - np.arange(m + 1)
        squares = np.zeros(m + 2)  # hop_n^2 for n = -1..m, zero at both ends
        squares[1:-1] = hop * hop
        worst_comm = max(
            worst_comm,
            float(np.linalg.norm((j0[:-1] * hop - hop * j0[1:]) - hop)),
            float(np.linalg.norm((j0[1:] * hop - hop * j0[:-1]) + hop)),
            float(np.linalg.norm((squares[1:] - squares[:-1]) - 2 * j0)),
        )
        for _ in range(3):
            r = float(rng.uniform(0.0, np.pi / 2 * 0.999))
            theta = float(rng.uniform(-np.pi, np.pi))
            d = displacement(DisplacementParams(r=r, theta=theta, m=m))
            worst_unit = max(
                worst_unit, float(np.linalg.norm(d.conj().T @ d - np.eye(m + 1)))
            )
    return [
        _result("su2-commutators", worst_comm, 1e-12),
        _result("displacement-unitarity", worst_unit, 1e-11),
    ]


def check_modulus_absorption() -> list[CheckResult]:
    """Which re-parameterization absorbs |mu| in the nu = 0 family.

    Candidate A: eta_bar = eta / (eta + |mu| (1 - eta));
    candidate B: eta_bar = eta / (eta + |mu|^2 (1 - eta)).
    The check rebuilds the |mu| != 1 eigenstates at unit modulus with each
    candidate and records which one reproduces them.
    """
    eta, m, phi = 0.3, 8, 0.7
    worst_b = 0.0
    best_a = 1.0
    for mod in (0.5, 2.0):
        mu = mod * np.exp(1j * phi)
        p = GBSParams(mu=mu, nu=0.0, eta=eta, m=m)
        bar_a = eta / (eta + mod * (1.0 - eta))
        bar_b = eta / (eta + mod * mod * (1.0 - eta))
        pa = GBSParams(mu=np.exp(1j * phi), nu=0.0, eta=bar_a, m=m)
        pb = GBSParams(mu=np.exp(1j * phi), nu=0.0, eta=bar_b, m=m)
        for k in (3, m):
            v = eigenstate_sum(p, k)
            worst_b = max(worst_b, 1.0 - fidelity(v, eigenstate_sum(pb, k)))
            best_a = min(best_a, 1.0 - fidelity(v, eigenstate_sum(pa, k)))
    detail = (
        f"|mu|^2 formula reproduces the states (worst infidelity {worst_b:.3e}); "
        f"|mu| formula does not (best infidelity {best_a:.3e})"
    )
    return [_result("modulus-absorption-verdict", worst_b, 1e-10, detail)]


def run_all() -> list[CheckResult]:
    """Run the full battery and return every CheckResult, each carrying the
    wall time of the check function that produced it."""
    battery = [
        check_binomial_core,
        check_spectrum_oracle,
        check_form_equivalence,
        check_degenerate_branch,
        check_number_state_limit,
        check_coherent_limit,
        check_squeezed_limit,
        check_disentangling,
        check_time_evolution,
        check_su2_algebra_and_unitarity,
        check_modulus_absorption,
    ]
    results: list[CheckResult] = []
    for check in battery:
        start = time.perf_counter()
        batch = check()
        elapsed = time.perf_counter() - start
        for r in batch:
            r.wall_s = elapsed
        results += batch
    return results
