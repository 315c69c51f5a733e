"""Per-op and per-schedule checks of gbstates' outputs against perfbench.reference.

An op's check receives the op and what calls.run_op returned; it raises
reference.CheckError on any disagreement and returns the op's limit
fidelity (scan ops) for the schedule check.  Nothing is compared with a
stored copy of earlier output.
"""

import json
import math

import numpy as np

from perfbench import reference as ref
from perfbench.workloads import binomial_row


class Stats:
    """Worst eigenpair residual seen, as a share of |L|_F."""

    def __init__(self):
        self.worst_residual = 0.0

    def residual(self, ratio: float) -> None:
        self.worst_residual = max(self.worst_residual, ratio)

    def residual_digits(self) -> float:
        return -math.log10(max(self.worst_residual, 1e-300))


def check_solution(mu, nu, eta, m, kind, values, vectors, stats) -> None:
    """Branch, spectrum and eigenpairs of one solve."""
    ref.check_kind(kind, mu, nu, eta)
    ref.check_spectrum(values, mu, nu, eta, m)
    bands = ref.hp_bands(mu, nu, eta, m)
    if kind == ref.DEFECTIVE:
        if len(vectors) != 1:
            raise ref.CheckError(f"defective branch returned {len(vectors)} eigenstates, expected 1")
        stats.residual(ref.check_eigenpairs(bands, [0.0], vectors))
        return
    if len(vectors) != m + 1:
        raise ref.CheckError(f"{len(vectors)} eigenstates, expected {m + 1}")
    stats.residual(ref.check_eigenpairs(bands, values, vectors))
    if kind == ref.HERMITIAN:
        ref.check_orthonormal(vectors)


def _scan_fidelity(op, rows) -> float:
    a = op.args
    (m, _, fid), = rows
    if m != op.m:
        raise ref.CheckError(f"scan row for m = {m}, expected {op.m}")
    mu, nu, alpha, eta = a["mu"], a["nu"], a["alpha"], op.eta()
    # the center state tends to the mu a + nu a^dag eigenstate with eigenvalue
    # alpha/2, the top state (nu = 0) to the coherent state |alpha/mu>;
    # L / sqrt(m) -> mu a + nu a^dag - alpha/2 fixes which eigenvalue of L
    target = alpha / 2.0 if a["rule"] == "center" else alpha
    lam = ref.nearest_eigenvalue(mu, nu, eta, m, math.sqrt(m) * (target - alpha / 2.0))
    limit = ref.two_photon_state(target / mu, -nu / (2.0 * mu))
    ref.check_fidelity(fid, ref.limit_fidelity(mu, nu, eta, m, lam, limit))
    return fid


def _number_fidelity(op, rows) -> float:
    a = op.args
    (eta, fid), = rows
    if eta != a["eta"]:
        raise ref.CheckError(f"number scan row for eta = {eta}, expected {a['eta']}")
    if a["nu"] != 0:
        raise ValueError("number-limit ops use nu = 0, where L is upper bidiagonal")
    bands = ref.hp_bands(a["mu"], a["nu"], eta, op.m)
    k = a["k"]
    v = ref.eigenvector(bands, bands[1][k])  # triangular L: its eigenvalues are its diagonal
    ref.check_fidelity(fid, float(abs(v[k]) ** 2 / np.vdot(v, v).real))
    return fid


def _check_cli(op, path, stats) -> None:
    try:
        with open(path, encoding="utf-8") as fh:
            _check_record(op, json.load(fh), stats)
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # a record of another shape
        raise ref.CheckError(f"malformed gbs record: {type(exc).__name__}: {exc}") from exc


def _check_record(op, record, stats) -> None:
    a = op.args
    params, results = record["params"], record["results"]
    if (complex(*params["mu"]), complex(*params["nu"]), params["eta"], params["m"]) != (
        complex(a["mu"]), complex(a["nu"]), a["eta"], op.m
    ):
        raise ref.CheckError(f"record echoes params {params}, not the op's")
    values = np.array([complex(*z) for z in results["eigenvalues"]])
    kind = results["kind"]
    ref.check_kind(kind, a["mu"], a["nu"], a["eta"])
    ref.check_spectrum(values, a["mu"], a["nu"], a["eta"], op.m)
    if results["eigenstate_k"] != a["k"]:
        raise ref.CheckError(f"record carries eigenstate {results['eigenstate_k']}, asked for {a['k']}")
    state = np.array([complex(*z) for z in results["eigenstate"]])
    lam = 0.0 if kind == ref.DEFECTIVE else values[a["k"]]
    stats.residual(ref.check_eigenpairs(ref.hp_bands(a["mu"], a["nu"], a["eta"], op.m), [lam], [state]))
    diag = record["diagnostics"]["oracle"]
    if diag["multiplicity_collapse"] != (kind == ref.DEFECTIVE):
        raise ref.CheckError("oracle multiplicity-collapse flag disagrees with the branch")
    if not diag["max_residual"] <= diag["residual_bound"]:
        raise ref.CheckError(f"oracle residual {diag['max_residual']} above its bound")
    if kind != ref.DEFECTIVE and not diag["max_pair_error"] <= diag["pair_error_bound"]:
        raise ref.CheckError(f"oracle pair error {diag['max_pair_error']} above its bound")


def _check_draw(op, out, stats) -> None:
    a = op.args
    sol, report, sums, exps, d = out
    mu, nu, eta, m = a["mu"], a["nu"], a["eta"], op.m
    check_solution(mu, nu, eta, m, sol.kind.value, sol.eigenvalues, sol.eigenstates, stats)
    bands = ref.hp_bands(mu, nu, eta, m)
    # the oracle's own residual must be the residual of the states it was given
    v = np.column_stack(sol.eigenstates)
    own = float(np.linalg.norm(ref.apply_bands(bands, v) - v * sol.eigenvalues[None, :], axis=0).max())
    if not abs(report.max_residual - own) <= 1e-6 * own + 1e-14 * ref.frobenius(bands):
        raise ref.CheckError(f"oracle residual {report.max_residual!r}, reference {own!r}")
    oracle_values = np.asarray(report.oracle_eigenvalues)
    if oracle_values.shape != (m + 1,) or not np.all(np.isfinite(oracle_values)):
        raise ref.CheckError("oracle did not return m + 1 finite eigenvalues")
    if sorted(i for i, _ in report.pairing) != list(range(m + 1)) or sorted(
        j for _, j in report.pairing
    ) != list(range(m + 1)):
        raise ref.CheckError("oracle pairing is not a bijection")
    for k in range(m + 1):
        stats.residual(ref.check_eigenpairs(bands, [sol.eigenvalues[k]], [sums[k]]))
        ref.check_forms_agree(sums[k], exps[k])
    ref.check_disentangled(d, a["xi"], m)


def check_op(op, out, stats: Stats):
    """Check one op's output; returns its limit fidelity for scan ops."""
    a = op.args
    if op.kind == "squeezed-scan":
        return _scan_fidelity(op, out)
    if op.kind == "number-scan":
        return _number_fidelity(op, out)
    if op.kind == "solve":
        check_solution(a["mu"], a["nu"], a["eta"], op.m, out.kind.value, out.eigenvalues, out.eigenstates, stats)
    elif op.kind == "cli-gbs":
        _check_cli(op, out, stats)
    elif op.kind == "draw":
        _check_draw(op, out, stats)
    elif op.kind == "binomial":
        for m, (amps, form) in zip(binomial_row(op.m), out, strict=True):
            ref.check_pmf(amps, a["eta"], m, ref.PMF_TOL)
            ref.check_pmf(form, a["eta"], m, ref.PMF_FORM_TOL)
    return None


def is_generic(op) -> bool:
    """Whether the op's point has closed-form cores (the reference's branch)."""
    return op.kind != "binomial" and ref.predict_kind(op.args["mu"], op.args["nu"], op.eta()) == ref.GENERIC


def check_schedules(ops, fidelities) -> None:
    """Fidelity must rise along each schedule, over the ops that did not fail."""
    groups = {}
    for op, fid in zip(ops, fidelities):
        if op.group and fid is not None:
            groups.setdefault(op.group, []).append(fid)
    for name, values in groups.items():
        ref.check_rising(name, values)
