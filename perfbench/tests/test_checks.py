"""Each check passes on gbstates' real output and rejects a perturbed copy."""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT / "src", ROOT):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from perfbench import calls, checks, reference as ref  # noqa: E402
from perfbench.workloads import Op  # noqa: E402

GENERIC = Op("solve", 8, dict(mu=1 + 0.2j, nu=0.3j, eta=0.4))
HERMITIAN = Op("solve", 8, dict(mu=0.8 + 0.3j, nu=0.8 - 0.3j, eta=0.4))
DEFECTIVE = Op("solve", 8, dict(mu=1 + 0j, nu=-0.25 + 0j, eta=0.5))
SQUEEZED = Op("squeezed-scan", 30, dict(mu=1 + 0j, nu=0.3j, alpha=1.0, rule="center"))
COHERENT = Op("squeezed-scan", 30, dict(mu=1j, nu=0j, alpha=1.2, rule="top-offset"))
NUMBER = Op("number-scan", 12, dict(mu=1 + 0j, nu=0j, eta=0.99, k=5))
CLI = Op("cli-gbs", 6, dict(mu=1 + 0.5j, nu=1 - 0.5j, eta=0.4, k=2))
DRAW = Op("draw", 5, dict(mu=0.7 - 0.4j, nu=1.3 + 0.2j, eta=0.3, xi=0.6 - 0.5j))
BINOMIAL = Op("binomial", 10, dict(eta=0.37))


def run(op, tmp_path=None):
    return calls.run_op(op, calls.UNTRACED, tmp_path / "gbs.json" if tmp_path else None)


def check(op, out):
    return checks.check_op(op, out, checks.Stats())


@pytest.mark.parametrize("op", [GENERIC, HERMITIAN, DEFECTIVE], ids=["generic", "hermitian", "defective"])
def test_solution_passes(op):
    check(op, run(op))


def test_scaled_eigenvalue_rejected():
    sol = run(GENERIC)
    with pytest.raises(ref.CheckError, match="eigenvalue"):
        check(GENERIC, dataclasses.replace(sol, eigenvalues=sol.eigenvalues * (1 + 1e-7)))


def test_eigenvalue_multiset_rejected():
    sol = run(GENERIC)
    values = sol.eigenvalues.copy()
    values[0] = values[1]  # right values, wrong multiplicities
    with pytest.raises(ref.CheckError, match="multiset"):
        check(GENERIC, dataclasses.replace(sol, eigenvalues=values))


@pytest.mark.parametrize("op", [GENERIC, DEFECTIVE], ids=["generic", "defective"])
def test_perturbed_eigenstate_rejected(op):
    sol = run(op)
    states = list(sol.eigenstates)
    v = states[-1].copy()
    v[0] += 1e-7
    states[-1] = v / np.linalg.norm(v)
    with pytest.raises(ref.CheckError, match="residual"):
        check(op, dataclasses.replace(sol, eigenstates=states))


def test_unnormalized_eigenstate_rejected():
    sol = run(GENERIC)
    states = [2.0 * sol.eigenstates[0]] + list(sol.eigenstates[1:])
    with pytest.raises(ref.CheckError, match="norm"):
        check(GENERIC, dataclasses.replace(sol, eigenstates=states))


@pytest.mark.parametrize(
    "op, wrong",
    [(GENERIC, ref.HERMITIAN), (HERMITIAN, ref.GENERIC), (DEFECTIVE, ref.GENERIC)],
    ids=["generic", "hermitian", "defective"],
)
def test_wrong_branch_kind_rejected(op, wrong):
    a = op.args
    with pytest.raises(ref.CheckError, match="branch"):
        ref.check_kind(wrong, a["mu"], a["nu"], a["eta"])


def test_non_orthonormal_hermitian_basis_rejected():
    sol = run(HERMITIAN)
    states = list(sol.eigenstates)
    # a unit vector with the right eigenvalue residual scale, but not orthogonal to its neighbour
    mixed = states[3] + 1e-6 * states[4]
    states[3] = mixed / np.linalg.norm(mixed)
    with pytest.raises(ref.CheckError, match="orthonormality"):
        ref.check_orthonormal(states)


@pytest.mark.parametrize("op", [SQUEEZED, COHERENT], ids=["squeezed", "coherent"])
def test_limit_fidelity(op):
    rows = run(op)
    check(op, rows)
    (m, res, fid), = rows
    with pytest.raises(ref.CheckError, match="limit fidelity"):
        check(op, [(m, res, fid - 1e-6)])


def test_number_fidelity():
    rows = run(NUMBER)
    check(NUMBER, rows)
    (eta, fid), = rows
    with pytest.raises(ref.CheckError, match="limit fidelity"):
        check(NUMBER, [(eta, fid * (1 - 1e-6))])


def test_falling_schedule_rejected():
    ops = [dataclasses.replace(SQUEEZED, group="s"), dataclasses.replace(SQUEEZED, group="s")]
    checks.check_schedules(ops, [0.99, 0.995])
    with pytest.raises(ref.CheckError, match="falls"):
        checks.check_schedules(ops, [0.995, 0.99])


def test_cli_record(tmp_path):
    path = run(CLI, tmp_path)
    check(CLI, path)
    text = path.read_text()
    record = json.loads(text)
    record["results"]["eigenvalues"][0][0] *= 1 + 1e-7
    path.write_text(json.dumps(record))
    with pytest.raises(ref.CheckError, match="eigenvalue"):
        check(CLI, path)
    record = json.loads(text)
    del record["results"]["eigenstate"]
    path.write_text(json.dumps(record))
    with pytest.raises(ref.CheckError, match="malformed"):
        check(CLI, path)


def test_draw_forms_and_rotation():
    sol, report, sums, exps, d = run(DRAW)
    check(DRAW, (sol, report, sums, exps, d))
    bent = list(exps)
    bent[2] = exps[2] + 1e-5 * exps[3]
    with pytest.raises(ref.CheckError, match="forms differ"):
        check(DRAW, (sol, report, sums, bent, d))
    with pytest.raises(ref.CheckError, match="expm"):
        check(DRAW, (sol, report, sums, exps, d + 1e-9))
    with pytest.raises(ref.CheckError, match="oracle residual"):
        check(DRAW, (sol, dataclasses.replace(report, max_residual=2 * report.max_residual + 1e-12), sums, exps, d))


def test_binomial_pmf():
    rows = run(BINOMIAL)
    check(BINOMIAL, rows)
    amps, form = rows[-1]
    bad = amps.copy()
    bad[3] *= 1 + 1e-12
    with pytest.raises(ref.CheckError, match="pmf"):
        check(BINOMIAL, rows[:-1] + [(bad, form)])


def test_reference_eigenvector_matches_invariant_spectrum():
    """The banded eigenvector is an eigenvector of the reference L."""
    bands = ref.hp_bands(0.9, 0.4j, 0.3, 40)
    lam = ref.invariant_spectrum(0.9, 0.4j, 0.3, 40)[17]
    v = ref.eigenvector(bands, lam)
    assert len(v) == 41
    assert np.linalg.norm(ref.apply_bands(bands, v) - lam * v) < 1e-10 * ref.frobenius(bands)
